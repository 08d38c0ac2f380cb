// Package trace is the per-run forensics layer of the serving stack: where
// internal/obs aggregates iteration records into scrapeable counters, this
// package keeps the records — each run becomes a deterministic tree
// (request → pipeline stage → algorithm run → per-iteration event) that can
// be replayed after the fact to answer questions aggregates cannot: why did
// *this* EM-Ext run stop at the iteration cap, how did the Gibbs chain
// behind *this* bound estimate converge, which pipeline stage ate the
// compute budget of *this* cancelled request.
//
// The package is stdlib-only and splits into four pieces:
//
//   - the trace model and Builder (this file): a concurrent-safe recorder
//     whose Hook plugs into runctx.WithHook (compose with other observers
//     via runctx.MultiHook) and whose Finish canonicalizes the record;
//   - the spill format: one trace per line through internal/jsonl
//     (SpillFile, Marshal, ReadFile), deterministic bytes;
//   - a flight recorder (recorder.go): fixed-capacity ring buffers holding
//     the last K completed and, separately, the last K' failed/cancelled
//     traces, so errors are never evicted by healthy traffic;
//   - a diagnostics layer (diag.go): EM log-likelihood monotonicity and
//     plateau detection.
//
// Determinism contract: every field of a finished Trace except the
// clearly-marked timing fields (StartUnixNS, DurationNS, Stage.DurationNS,
// Event.ElapsedNS) is a bit-for-bit deterministic function of the run's
// seed and inputs at any Workers value. Concurrent fan-outs (exact-bound
// blocks) emit records in scheduler order, so Finish sorts each run's events
// by their deterministic fields — the sorted sequence is identical however
// the scheduler interleaved the firings. StripTimings zeroes the
// timing fields for byte-level determinism diffs.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"depsense/internal/jsonl"
	"depsense/internal/mapsort"
	"depsense/internal/runctx"
)

// SpillFile is the trace spill filename under a server's trace directory.
const SpillFile = "traces.jsonl"

// Marshal encodes one trace as its spill line (no trailing newline): the
// struct field order is fixed by the type definitions and attrs and runs
// are canonicalized by Finish, so the same trace always encodes to the same
// bytes.
func Marshal(t *Trace) ([]byte, error) {
	line, err := json.Marshal(t)
	if err != nil {
		return nil, fmt.Errorf("trace: encode %q: %w", t.ID, err)
	}
	return line, nil
}

// ReadFile decodes a trace spill strictly (see internal/jsonl).
func ReadFile(path string) ([]*Trace, error) { return jsonl.ReadFile[Trace](path) }

// Trace statuses. A trace is "failed" (retained in the flight recorder's
// error ring) for any status other than StatusOK.
const (
	// StatusOK marks a run that completed normally (converged or hit its
	// iteration cap — both are successful terminations).
	StatusOK = "ok"
	// StatusCancelled marks a run cut short by context cancellation.
	StatusCancelled = runctx.StopCancelled
	// StatusDeadline marks a run cut short by a context deadline.
	StatusDeadline = runctx.StopDeadline
	// StatusError marks a run that failed outright (estimator or pipeline
	// error); Trace.Error carries the message.
	StatusError = "error"
)

// StatusOf derives a trace status from a run-ending error: StatusOK for
// nil, the matching stop reason for cancellation/deadline, StatusError
// otherwise.
func StatusOf(err error) string {
	if err == nil {
		return StatusOK
	}
	if reason := runctx.Reason(err); reason != "" {
		return reason
	}
	return StatusError
}

// Attr is one key="value" annotation on a trace (algorithm, dataset shape,
// worker count). Attrs are sorted by key at Finish.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is one recorded runctx.Iteration: an EM iteration, a Gibbs sweep
// checkpoint, an enumeration block, or a heuristic round. All fields except
// ElapsedNS are deterministic.
type Event struct {
	// N is the 1-based iteration / checkpoint number.
	N int `json:"n"`
	// LogLikelihood is the data log-likelihood when HasLL is set.
	LogLikelihood float64 `json:"logLikelihood,omitempty"`
	// HasLL marks LogLikelihood as meaningful (a genuine 0.0 included).
	HasLL bool `json:"hasLL,omitempty"`
	// Value is the algorithm's scalar trajectory statistic when HasValue is
	// set (gibbs-bound: the checkpoint's batch-mean conditional error).
	Value float64 `json:"value,omitempty"`
	// HasValue marks Value as meaningful.
	HasValue bool `json:"hasValue,omitempty"`
	// Jump marks an EM iteration whose input is not the map of the
	// previous iteration's input (an extrapolated SQUAREM point, or the
	// restart after a rejected one): no log-likelihood ascent is owed
	// into it.
	Jump bool `json:"jump,omitempty"`
	// Samples is the cumulative sample / pattern count, when the layer
	// reports one.
	Samples int `json:"samples,omitempty"`
	// Done marks the run's final firing; Stopped carries its stop reason.
	Done    bool   `json:"done,omitempty"`
	Stopped string `json:"stopped,omitempty"`
	// ElapsedNS is wall-clock time since the run started — a TIMING field,
	// excluded from the determinism contract.
	ElapsedNS int64 `json:"elapsedNS,omitempty"`
}

// Run groups one algorithm's events within a trace. A pipeline request
// usually holds one run per estimator variant it executed (EM-Ext's sparse
// plug-in mode, for example, records an EM-Social run and the EM-Ext
// re-score that follows it).
type Run struct {
	// Algorithm is the runctx display name ("EM-Ext", "gibbs-bound", ...).
	Algorithm string `json:"algorithm"`
	// Events is the canonicalized event sequence: sorted by (N, Samples,
	// Done, Stopped, LogLikelihood, Value, Jump), which is a total order
	// over the deterministic fields, so the sequence is identical at any
	// Workers value.
	Events []Event `json:"events"`
}

// Iterations returns the largest iteration number the run reached.
func (r *Run) Iterations() int {
	max := 0
	for i := range r.Events {
		if r.Events[i].N > max {
			max = r.Events[i].N
		}
	}
	return max
}

// Stopped returns the stop reason of the run's final firing, "" if the run
// never fired a Done record (cut short before any final event).
func (r *Run) Stopped() string {
	for i := range r.Events {
		if r.Events[i].Done && r.Events[i].Stopped != "" {
			return r.Events[i].Stopped
		}
	}
	return ""
}

// Stage is the measured duration of one pipeline stage, in execution order.
type Stage struct {
	Name string `json:"name"`
	// DurationNS is a TIMING field, excluded from the determinism contract.
	DurationNS int64 `json:"durationNS"`
}

// Trace is one finished run record.
type Trace struct {
	// ID identifies the trace; callers assign it (the HTTP layer derives it
	// from the request id). IDs should be unique within a flight recorder.
	ID string `json:"id"`
	// Name names the workload ("factfind", "apollo", "experiments").
	Name string `json:"name"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
	// Error carries the failure message when Status is StatusError.
	Error string `json:"error,omitempty"`
	// Attrs are the trace's annotations, sorted by key.
	Attrs []Attr `json:"attrs,omitempty"`
	// Stages are the pipeline stage timings in execution order.
	Stages []Stage `json:"stages,omitempty"`
	// Runs are the algorithm runs, sorted by algorithm name.
	Runs []*Run `json:"runs,omitempty"`
	// Diagnostics is the convergence analysis computed at Finish.
	Diagnostics *Diagnostics `json:"diagnostics,omitempty"`
	// StartUnixNS and DurationNS are TIMING fields, excluded from the
	// determinism contract.
	StartUnixNS int64 `json:"startUnixNS"`
	DurationNS  int64 `json:"durationNS"`
}

// Failed reports whether the trace belongs in the flight recorder's
// error ring: any status other than StatusOK.
func (t *Trace) Failed() bool { return t.Status != StatusOK }

// Events returns the total event count across runs.
func (t *Trace) Events() int {
	n := 0
	for _, r := range t.Runs {
		n += len(r.Events)
	}
	return n
}

// Summary is the index-listing view of a trace.
type Summary struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Status      string `json:"status"`
	Runs        int    `json:"runs"`
	Events      int    `json:"events"`
	StartUnixNS int64  `json:"startUnixNS"`
	DurationNS  int64  `json:"durationNS"`
}

// Summary derives the trace's index entry.
func (t *Trace) Summary() Summary {
	return Summary{
		ID:          t.ID,
		Name:        t.Name,
		Status:      t.Status,
		Runs:        len(t.Runs),
		Events:      t.Events(),
		StartUnixNS: t.StartUnixNS,
		DurationNS:  t.DurationNS,
	}
}

// StripTimings returns a deep copy of the trace with every timing field
// zeroed (StartUnixNS, DurationNS, Stage.DurationNS, Event.ElapsedNS).
// Serializing the stripped copies of two runs and comparing bytes is the
// canonical determinism check: fixed seed, any Workers value, same bytes.
func (t *Trace) StripTimings() *Trace {
	c := *t
	c.StartUnixNS, c.DurationNS = 0, 0
	c.Attrs = append([]Attr(nil), t.Attrs...)
	c.Stages = make([]Stage, len(t.Stages))
	for i, s := range t.Stages {
		s.DurationNS = 0
		c.Stages[i] = s
	}
	c.Runs = make([]*Run, len(t.Runs))
	for i, r := range t.Runs {
		cr := &Run{Algorithm: r.Algorithm, Events: make([]Event, len(r.Events))}
		for j, e := range r.Events {
			e.ElapsedNS = 0
			cr.Events[j] = e
		}
		c.Runs[i] = cr
	}
	if t.Diagnostics != nil {
		d := *t.Diagnostics
		d.Runs = append([]RunDiag(nil), t.Diagnostics.Runs...)
		c.Diagnostics = &d
	}
	return &c
}

// Builder records one run in progress. All methods are safe for concurrent
// use: the Hook may fire from parallel estimator fan-outs while the serving
// goroutine records stages. A Builder is single-use; Finish seals it.
type Builder struct {
	mu       sync.Mutex
	id       string             // immutable after NewBuilder
	name     string             // immutable after NewBuilder
	attrs    []Attr             // guarded by mu
	stages   []Stage            // guarded by mu
	events   map[string][]Event // algorithm → arrival-order events; guarded by mu
	start    time.Time          // immutable after NewBuilder
	clock    func() time.Time   // immutable after NewBuilder
	finished bool               // guarded by mu
}

// NewBuilder starts a trace record. clock supplies the timing fields; nil
// means the wall clock (injected so trace timing stays testable and the
// package honors the clocked-zone lint contract).
func NewBuilder(id, name string, clock func() time.Time) *Builder {
	if clock == nil {
		clock = time.Now
	}
	return &Builder{
		id:     id,
		name:   name,
		events: make(map[string][]Event),
		start:  clock(),
		clock:  clock,
	}
}

// SetAttr annotates the trace. Setting the same key again overwrites.
func (b *Builder) SetAttr(key, value string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.attrs {
		if b.attrs[i].Key == key {
			b.attrs[i].Value = value
			return
		}
	}
	b.attrs = append(b.attrs, Attr{Key: key, Value: value})
}

// Stage records one completed pipeline stage. Stages keep recording order.
func (b *Builder) Stage(name string, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stages = append(b.stages, Stage{Name: name, DurationNS: d.Nanoseconds()})
}

// Hook returns a runctx.Hook that records every iteration into the trace.
// The hook is internally serialized, so it is safe under parallel fan-outs.
func (b *Builder) Hook() runctx.Hook {
	return func(it runctx.Iteration) {
		e := Event{
			N:             it.N,
			LogLikelihood: it.LogLikelihood,
			HasLL:         it.HasLL,
			Value:         it.Value,
			HasValue:      it.HasValue,
			Jump:          it.Jump,
			Samples:       it.Samples,
			Done:          it.Done,
			Stopped:       it.Stopped,
			ElapsedNS:     it.Elapsed.Nanoseconds(),
		}
		b.mu.Lock()
		if !b.finished {
			b.events[it.Algorithm] = append(b.events[it.Algorithm], e)
		}
		b.mu.Unlock()
	}
}

// Finish seals the builder and returns the canonicalized trace: attrs
// sorted by key, runs sorted by algorithm, each run's events sorted by
// their deterministic fields, diagnostics computed. status should be one of
// the Status* constants (StatusOf maps a run error to one); errMsg is
// recorded for StatusError. Events arriving after Finish are dropped.
func (b *Builder) Finish(status, errMsg string) *Trace {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.finished = true
	t := &Trace{
		ID:          b.id,
		Name:        b.name,
		Status:      status,
		Error:       errMsg,
		Attrs:       append([]Attr(nil), b.attrs...),
		Stages:      append([]Stage(nil), b.stages...),
		StartUnixNS: b.start.UnixNano(),
		DurationNS:  b.clock().Sub(b.start).Nanoseconds(),
	}
	sort.SliceStable(t.Attrs, func(i, j int) bool { return t.Attrs[i].Key < t.Attrs[j].Key })
	for _, alg := range mapsort.Keys(b.events) {
		run := &Run{Algorithm: alg, Events: append([]Event(nil), b.events[alg]...)}
		canonicalizeEvents(run.Events)
		t.Runs = append(t.Runs, run)
	}
	t.Diagnostics = Diagnose(t)
	return t
}

// canonicalizeEvents sorts events by a total order over their deterministic
// fields. Parallel blocks deliver records in scheduler order; the sorted
// sequence is the same at any Workers value because the *set* of events is
// (the repository-wide parallel-determinism contract). Ties across every
// deterministic field can only differ in ElapsedNS, which the determinism
// contract excludes, so stable order among them is irrelevant.
func canonicalizeEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		if a.N != b.N {
			return a.N < b.N
		}
		if a.Samples != b.Samples {
			return a.Samples < b.Samples
		}
		if a.Done != b.Done {
			return !a.Done
		}
		if a.Stopped != b.Stopped {
			return a.Stopped < b.Stopped
		}
		if a.LogLikelihood != b.LogLikelihood {
			return a.LogLikelihood < b.LogLikelihood
		}
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return !a.Jump && b.Jump
	})
}
