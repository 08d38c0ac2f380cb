package trace

import (
	"sort"
	"sync"
)

// Default flight-recorder capacities.
const (
	// DefaultCompleted is the default retention for healthy run traces.
	DefaultCompleted = 64
	// DefaultFailed is the default retention for failed/cancelled run
	// traces, kept in their own ring so a burst of healthy traffic can
	// never evict the error the operator is hunting.
	DefaultFailed = 16
)

// FlightRecorder retains the last K completed and last K' failed/cancelled
// run traces in fixed-capacity ring buffers — bounded memory no matter how
// long the server runs. All methods are safe for concurrent use; Get and
// Index return the stored trace pointers, which are immutable after Finish.
type FlightRecorder struct {
	mu      sync.Mutex
	ok      ring              // guarded by mu
	bad     ring              // guarded by mu
	byID    map[string]*entry // guarded by mu
	seq     uint64            // insertion counter; Index orders newest-first by it; guarded by mu
	added   uint64            // guarded by mu
	evicted uint64            // guarded by mu
}

type entry struct {
	t   *Trace
	seq uint64
}

// ring is a fixed-capacity FIFO of trace entries.
type ring struct {
	buf  []*entry
	head int // next slot to overwrite
	n    int // live entries
}

func (r *ring) push(e *entry) (evicted *entry) {
	if len(r.buf) == 0 {
		return nil
	}
	if r.n == len(r.buf) {
		evicted = r.buf[r.head]
	} else {
		r.n++
	}
	r.buf[r.head] = e
	r.head = (r.head + 1) % len(r.buf)
	return evicted
}

func (r *ring) each(f func(*entry)) {
	start := (r.head - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		f(r.buf[(start+i)%len(r.buf)])
	}
}

// NewFlightRecorder builds a recorder retaining up to completed healthy
// traces and failed error traces. Zero or negative completed selects
// DefaultCompleted; zero or negative failed selects a quarter of the
// completed retention, never below DefaultFailed, so a small completed ring
// cannot silently stop retaining the failures the operator is hunting.
func NewFlightRecorder(completed, failed int) *FlightRecorder {
	if completed <= 0 {
		completed = DefaultCompleted
	}
	if failed <= 0 {
		failed = max(completed/4, DefaultFailed)
	}
	return &FlightRecorder{
		ok:   ring{buf: make([]*entry, completed)},
		bad:  ring{buf: make([]*entry, failed)},
		byID: make(map[string]*entry),
	}
}

// Record stores a finished trace, evicting the oldest trace of the same
// health class (completed vs failed) once that ring is full. Recording a
// second trace under an existing ID replaces the ID's index entry; the
// older trace ages out of its ring normally.
func (f *FlightRecorder) Record(t *Trace) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	f.added++
	e := &entry{t: t, seq: f.seq}
	r := &f.ok
	if t.Failed() {
		r = &f.bad
	}
	if old := r.push(e); old != nil {
		f.evicted++
		// Drop the evicted trace from the index unless a newer trace
		// already claimed its ID.
		if cur, ok := f.byID[old.t.ID]; ok && cur == old {
			delete(f.byID, old.t.ID)
		}
	}
	f.byID[t.ID] = e
}

// Get returns the retained trace with the given ID.
func (f *FlightRecorder) Get(id string) (*Trace, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.byID[id]
	if !ok {
		return nil, false
	}
	return e.t, true
}

// Index lists the retained traces, newest first (by insertion order, which
// is deterministic given the caller's recording order), failed and
// completed interleaved.
func (f *FlightRecorder) Index() []Summary {
	f.mu.Lock()
	defer f.mu.Unlock()
	entries := make([]*entry, 0, f.ok.n+f.bad.n)
	f.ok.each(func(e *entry) { entries = append(entries, e) })
	f.bad.each(func(e *entry) { entries = append(entries, e) })
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq > entries[j].seq })
	out := make([]Summary, len(entries))
	for i, e := range entries {
		out[i] = e.t.Summary()
	}
	return out
}

// Len returns the number of retained traces.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ok.n + f.bad.n
}

// Stats reports lifetime counters: traces recorded and traces evicted.
func (f *FlightRecorder) Stats() (added, evicted uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.added, f.evicted
}
