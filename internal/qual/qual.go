// Package qual is the estimation-quality observability layer: where
// internal/obs reports whether the serving stack is mechanically healthy
// (latency, queues, iterations), this package reports whether the
// *estimates* are healthy. A Monitor observes every completed refit and
// produces a deterministic Verdict with three ingredients:
//
//   - calibration tracking: a fixed-bucket reliability diagram and expected
//     calibration error (ECE) over the posterior assertion probabilities,
//     scored against ground truth in eval/simulation mode and against the
//     Voting baseline's decisions (cross-estimator agreement) in live mode;
//   - bound-vs-empirical tracking: every BoundEvery refits the paper's
//     error bound is re-evaluated on the current fitted parameters (the
//     deterministic lattice convolution over every distinct dependency
//     column) and compared against the observed disagreement rate —
//     empirical error exceeding the bound is the immediate red flag the
//     paper's theory licenses;
//   - drift detection: deterministic Page-Hinkley detectors over every
//     source's fitted reliability trajectory and one-sided CUSUM detectors
//     over dependency-graph churn (dependent-claim fraction, follow-edge
//     add rate), alarming with the exact triggering tick and the offending
//     window of observations.
//
// Determinism contract: a Verdict carries no timestamps and no
// scheduler-dependent state — it is a pure function of the refit sequence
// (results, datasets, edge counts) and the Options, so two monitors fed
// the same stream produce byte-identical verdict JSON at any Workers
// value. Timing lands only in the obs metrics. Alarms additionally
// snapshot their window into an attached trace.FlightRecorder under a
// non-"ok" status, parking them in the failed ring where healthy refit
// traffic can never evict them, and every verdict can be spilled as JSONL
// (internal/jsonl) for the cmd/ssaudit offline checker.
package qual

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"depsense/internal/baselines"
	"depsense/internal/bound"
	"depsense/internal/claims"
	"depsense/internal/factfind"
	"depsense/internal/jsonl"
	"depsense/internal/model"
	"depsense/internal/obs"
	"depsense/internal/runctx"
	"depsense/internal/trace"
)

// Metric names exported by the monitor (DESIGN.md §15 has the catalog).
const (
	// MetricECE / MetricDisagreement / MetricImpliedError gauge the latest
	// verdict's calibration summary.
	MetricECE          = "depsense_qual_ece"
	MetricDisagreement = "depsense_qual_disagreement"
	MetricImpliedError = "depsense_qual_implied_error"
	// MetricPosterior is the fixed-bucket posterior histogram, labeled
	// set="all" (every posterior) and set="agree" (posteriors whose
	// decision matches the reference) — the scrapeable reliability diagram.
	MetricPosterior = "depsense_qual_posterior"
	// MetricBound / MetricBoundObserved / MetricBoundRatio gauge the latest
	// bound evaluation: the computed error bound, the observed disagreement
	// rate at that tick, and observed/bound (ratio > 1 = red flag).
	MetricBound         = "depsense_qual_bound_err"
	MetricBoundObserved = "depsense_qual_bound_observed_err"
	MetricBoundRatio    = "depsense_qual_bound_ratio"
	// MetricAlarms counts drift/bound alarms by kind.
	MetricAlarms = "depsense_qual_alarm_total"
	// MetricDriftStat gauges the largest per-source Page-Hinkley statistic
	// observed at the latest tick — how close the worst source is to an
	// alarm.
	MetricDriftStat = "depsense_qual_drift_stat_max"
	// MetricVerdicts counts verdicts produced.
	MetricVerdicts = "depsense_qual_verdicts_total"
	// MetricObserveSeconds / MetricBoundSeconds are TIMING histograms: the
	// monitor's per-refit overhead (calibration + drift; what -exp bench
	// gates against fit cost) and the amortized bound evaluation cost.
	MetricObserveSeconds = "depsense_qual_observe_duration_seconds"
	MetricBoundSeconds   = "depsense_qual_bound_duration_seconds"
)

// Alarm kinds.
const (
	// AlarmSourceReliability fires when a source's fitted reliability
	// trajectory drifts down (Page-Hinkley).
	AlarmSourceReliability = "source-reliability"
	// AlarmDependentFraction fires when the dependent-claim fraction
	// drifts up (CUSUM).
	AlarmDependentFraction = "dependent-fraction"
	// AlarmEdgeRate fires when the follow-edge add rate drifts up (CUSUM).
	AlarmEdgeRate = "edge-rate"
	// AlarmBoundExceeded fires when the observed disagreement rate exceeds
	// the computed error bound.
	AlarmBoundExceeded = "bound-exceeded"
)

// TraceStatusAlarm is the status of alarm-window snapshot traces; any
// non-"ok" status routes them into the flight recorder's failed ring.
const TraceStatusAlarm = "alarm"

// decisionThreshold thresholds posteriors into decisions, matching
// factfind.DefaultThreshold.
const decisionThreshold = factfind.DefaultThreshold

// calibrationBuckets is the reliability-diagram bin count.
const calibrationBuckets = 10

// churnDelta / churnLambda tune the graph-churn CUSUM detectors: the
// per-step allowance and the alarm threshold. The edge-rate series is
// normalized by the batch claim count, so the thresholds are scale-free.
const (
	churnDelta  = 0.01
	churnLambda = 0.1
)

// SpillFile is the quality spill filename under Options.SpillDir.
const SpillFile = "quality.jsonl"

// Write encodes verdicts as their spill lines. No Verdict field carries
// timestamps or scheduler state, so the same refit sequence always spills
// the same bytes.
func Write(w io.Writer, verdicts ...*Verdict) error { return jsonl.Write(w, verdicts...) }

// Options configures a Monitor. The zero value selects the documented
// defaults with drift detection on, the bound evaluated every 8 refits,
// and live-mode (Voting agreement) calibration.
type Options struct {
	// Window is the per-series observation window retained for alarm
	// snapshots, in refits (default 32).
	Window int
	// MinObs is the detector warmup: no alarms before this many
	// observations of a series (default 8).
	MinObs int
	// DriftDelta / DriftLambda tune the per-source reliability
	// Page-Hinkley detectors: the per-step drift allowance and the alarm
	// threshold on the accumulated statistic (defaults 0.005 and 0.05).
	DriftDelta  float64
	DriftLambda float64
	// DisableDrift turns the drift detectors off — the right mode when
	// refits are unrelated datasets (the per-request HTTP service) rather
	// than one evolving stream.
	DisableDrift bool

	// BoundEvery evaluates the error bound every n-th refit; 0 selects 8,
	// negative disables bound tracking.
	BoundEvery int
	// Deprecated: no effect; the bound is deterministic.
	BoundSeed int64
	// Deprecated: no effect; the bound is deterministic.
	Workers int

	// Truth, when set, supplies ground-truth labels by assertion id
	// (ok=false when unknown) and selects eval/simulation mode. Nil
	// selects live mode: labels come from the Voting baseline re-run on
	// the same dataset.
	Truth func(assertion int) (label, ok bool)

	// Metrics receives the monitor's telemetry; nil records nothing.
	Metrics *obs.Registry
	// Clock supplies the TIMING measurements only (overhead histograms);
	// nil means the wall clock. Verdicts never read it.
	Clock func() time.Time
	// Flight, when set, receives each alarm's window snapshot as a trace
	// with status "alarm" (retained in the failed ring).
	Flight *trace.FlightRecorder
	// SpillDir, when set, appends every verdict to SpillDir/quality.jsonl
	// for offline analysis with cmd/ssaudit. The directory must exist.
	SpillDir string
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 32
	}
	if o.MinObs <= 0 {
		o.MinObs = 8
	}
	if o.DriftDelta <= 0 {
		o.DriftDelta = 0.005
	}
	if o.DriftLambda <= 0 {
		o.DriftLambda = 0.05
	}
	if o.BoundEvery == 0 {
		o.BoundEvery = 8
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Refit describes one completed refit for ObserveRefit.
type Refit struct {
	// Result is the refit's estimate; Posterior drives calibration, Params
	// (when present) drives the per-source drift series and the bound.
	Result *factfind.Result
	// Dataset is the dataset behind the refit.
	Dataset *claims.Dataset
	// Edges is the cumulative follow-edge count observed so far; negative
	// when the caller has no graph-churn signal (the edge-rate detector
	// then skips this tick).
	Edges int
}

// Verdict is the quality analysis of one refit. Every field is
// deterministic — no timestamps, no scheduler-dependent state — so verdict
// JSON is byte-identical at any Workers value.
type Verdict struct {
	// Tick is the 0-based refit index this verdict describes.
	Tick int `json:"tick"`
	// Sources / Assertions / Claims describe the dataset shape.
	Sources    int `json:"sources"`
	Assertions int `json:"assertions"`
	Claims     int `json:"claims"`
	// Calibration is the reliability diagram and its summary statistics.
	Calibration Calibration `json:"calibration"`
	// Drift summarizes the detectors' state after this tick; nil when
	// drift detection is disabled.
	Drift *DriftStatus `json:"drift,omitempty"`
	// Bound is the most recent bound evaluation (re-attached between
	// evaluations so every verdict carries the standing comparison); nil
	// before the first evaluation or when bound tracking is disabled.
	Bound *BoundStatus `json:"bound,omitempty"`
	// Alarms lists the alarms that fired at exactly this tick.
	Alarms []Alarm `json:"alarms,omitempty"`
}

// DriftStatus is the drift detectors' per-tick summary.
type DriftStatus struct {
	// SourcesTracked is the number of per-source detectors fed this tick.
	SourcesTracked int `json:"sourcesTracked"`
	// MaxStat is the largest per-source Page-Hinkley statistic and
	// MaxStatSource the source holding it (lowest id on ties, -1 when no
	// sources are tracked).
	MaxStat       float64 `json:"maxStat"`
	MaxStatSource int     `json:"maxStatSource"`
	// DependentFraction is this tick's dependent-claim fraction and
	// DependentStat its CUSUM statistic.
	DependentFraction float64 `json:"dependentFraction"`
	DependentStat     float64 `json:"dependentStat"`
	// EdgeRate is this tick's new-edge count per claim (-1 when the
	// caller supplied no edge signal) and EdgeStat its CUSUM statistic.
	EdgeRate float64 `json:"edgeRate"`
	EdgeStat float64 `json:"edgeStat"`
}

// BoundStatus is one bound-vs-empirical comparison.
type BoundStatus struct {
	// Tick is the refit the bound was evaluated at (bounds amortize over
	// BoundEvery refits, so a verdict may carry an earlier tick's bound).
	Tick int `json:"tick"`
	// Bound is the computed expected error bound.
	Bound float64 `json:"bound"`
	// StdErr and Sweeps described the sampled bound this monitor once
	// computed. They are never written now and stay only so that older
	// spills still decode.
	StdErr float64 `json:"stdErr,omitempty"`
	Sweeps int     `json:"sweeps,omitempty"`
	// Observed is the disagreement rate at the evaluation tick and Ratio
	// is Observed/Bound; Exceeded flags Observed > Bound, the red-flag
	// condition.
	Observed float64 `json:"observed"`
	Ratio    float64 `json:"ratio"`
	Exceeded bool    `json:"exceeded"`
}

// Alarm is one detector firing.
type Alarm struct {
	// Kind is one of the Alarm* constants.
	Kind string `json:"kind"`
	// Source is the offending source for AlarmSourceReliability, -1
	// otherwise.
	Source int `json:"source"`
	// Tick is the exact refit index the detector crossed its threshold.
	Tick int `json:"tick"`
	// Stat is the detector statistic at the crossing; Threshold the
	// configured alarm threshold it crossed.
	Stat      float64 `json:"stat"`
	Threshold float64 `json:"threshold"`
	// StartTick is the tick of the oldest retained observation in Window;
	// Window is the offending observation stretch in chronological order.
	StartTick int       `json:"startTick"`
	Window    []float64 `json:"window"`
	// TraceID names the window snapshot recorded into the flight
	// recorder, empty when no recorder is attached. The id is
	// deterministic (derived from kind, source, and tick).
	TraceID string `json:"traceID,omitempty"`
}

// Monitor tracks estimation quality across a refit sequence. Construct
// with NewMonitor; ObserveRefit is safe for concurrent use (observations
// serialize), though tick numbering then follows arrival order.
type Monitor struct {
	opts Options

	mu        sync.Mutex
	tick      int
	perSource []pageHinkley
	depDet    *cusum
	edgeDet   *cusum
	prevEdges int
	alarms    []Alarm
	boundLast *BoundStatus

	latest atomic.Pointer[Verdict]
}

// NewMonitor builds a monitor.
func NewMonitor(opts Options) *Monitor {
	return &Monitor{opts: opts.withDefaults(), prevEdges: -1}
}

// Latest returns the most recent verdict, nil before the first refit.
func (m *Monitor) Latest() *Verdict { return m.latest.Load() }

// Ticks returns the number of refits observed.
func (m *Monitor) Ticks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tick
}

// Alarms returns a copy of every alarm fired so far, in tick order.
func (m *Monitor) Alarms() []Alarm {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alarm(nil), m.alarms...)
}

// Report is the /debug/quality payload: the latest verdict plus the
// cumulative alarm history.
type Report struct {
	// Ticks is the number of refits observed; Latest the most recent
	// verdict (nil before the first).
	Ticks  int      `json:"ticks"`
	Latest *Verdict `json:"latest,omitempty"`
	// Alarms is every alarm fired over the monitor's lifetime, in tick
	// order — not just the latest tick's.
	Alarms []Alarm `json:"alarms,omitempty"`
}

// Report assembles the monitor's debug payload.
func (m *Monitor) Report() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Report{
		Ticks:  m.tick,
		Latest: m.latest.Load(),
		Alarms: append([]Alarm(nil), m.alarms...),
	}
}

// ObserveRefit analyzes one completed refit and returns its verdict. The
// returned error reports a spill failure only — the verdict is always
// produced — so callers can log it without losing the analysis. The bound
// evaluation honors ctx; a cancelled bound is skipped, never partial.
func (m *Monitor) ObserveRefit(ctx context.Context, r Refit) (*Verdict, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o := m.opts
	start := o.Clock()

	v := &Verdict{
		Tick:       m.tick,
		Sources:    r.Dataset.N(),
		Assertions: r.Dataset.M(),
		Claims:     r.Dataset.NumClaims(),
	}
	var labels func(int) (bool, bool)
	v.Calibration, labels = m.calibrate(ctx, r)
	if !o.DisableDrift {
		v.Drift = m.observeDrift(r, v)
	}
	m.exportCalibration(r, v, labels)
	observeD := o.Clock().Sub(start)

	if o.BoundEvery > 0 && r.Result.Params != nil && m.tick%o.BoundEvery == 0 {
		boundStart := o.Clock()
		if bs := m.evaluateBound(ctx, r, v.Calibration.Disagreement); bs != nil {
			m.boundLast = bs
			if bs.Exceeded {
				m.fireAlarm(v, Alarm{
					Kind:      AlarmBoundExceeded,
					Source:    -1,
					Tick:      m.tick,
					Stat:      bs.Ratio,
					Threshold: 1,
					StartTick: bs.Tick,
					Window:    []float64{bs.Bound, bs.Observed},
				})
			}
			if reg := o.Metrics; reg != nil {
				reg.Gauge(MetricBound, "Computed expected error bound on the current fitted parameters.").Set(bs.Bound)
				reg.Gauge(MetricBoundObserved, "Observed disagreement rate at the last bound evaluation.").Set(bs.Observed)
				reg.Gauge(MetricBoundRatio, "Observed disagreement over computed bound (>1 = red flag).").Set(bs.Ratio)
			}
		}
		if reg := o.Metrics; reg != nil {
			reg.Histogram(MetricBoundSeconds, "Amortized bound evaluation duration in seconds.", nil).
				Observe(o.Clock().Sub(boundStart).Seconds())
		}
	}
	v.Bound = m.boundLast

	m.tick++
	m.latest.Store(v)
	if reg := o.Metrics; reg != nil {
		reg.Counter(MetricVerdicts, "Quality verdicts produced.").Inc()
		reg.Histogram(MetricObserveSeconds,
			"Per-refit quality-monitor overhead in seconds (calibration + drift; bound excluded).", nil).
			Observe(observeD.Seconds())
	}
	if o.SpillDir != "" {
		if err := jsonl.Append(filepath.Join(o.SpillDir, SpillFile), v); err != nil {
			return v, fmt.Errorf("qual: spill verdict %d: %w", v.Tick, err)
		}
	}
	return v, nil
}

// calibrate computes the tick's calibration block against ground truth or
// the Voting baseline, and returns the reference label function it used so
// the posterior histograms reuse it.
func (m *Monitor) calibrate(ctx context.Context, r Refit) (Calibration, func(int) (bool, bool)) {
	if m.opts.Truth != nil {
		return computeCalibration(calibrationBuckets, r.Result.Posterior, m.opts.Truth, "truth"), m.opts.Truth
	}
	// Live mode: agreement against Voting, the cheapest independent
	// estimator (one pass over the dataset). Voting cannot fail on a
	// dataset the refit just fit; a cancelled context yields an empty
	// reference, leaving only the label-free statistics.
	label := func(int) (bool, bool) { return false, false }
	if ref, err := (&baselines.Voting{}).RunContext(ctx, r.Dataset); err == nil {
		dec := ref.Decisions(decisionThreshold)
		label = func(j int) (bool, bool) {
			if j >= len(dec) {
				return false, false
			}
			return dec[j], true
		}
	}
	return computeCalibration(calibrationBuckets, r.Result.Posterior, label, "voting"), label
}

// exportCalibration publishes the calibration gauges and the posterior
// histograms, split by agreement with the calibration's reference labels.
func (m *Monitor) exportCalibration(r Refit, v *Verdict, labels func(int) (bool, bool)) {
	reg := m.opts.Metrics
	if reg == nil {
		return
	}
	c := &v.Calibration
	reg.Gauge(MetricECE, "Expected calibration error of the latest refit's posteriors.").Set(c.ECE)
	reg.Gauge(MetricDisagreement, "Decision disagreement rate against the calibration reference.").Set(c.Disagreement)
	reg.Gauge(MetricImpliedError, "Posterior-implied Bayes error mean min(p, 1-p).").Set(c.ImpliedError)
	all := reg.Histogram(MetricPosterior, "Posterior assertion probabilities of the latest refit, by agreement with the reference.",
		PosteriorBuckets(), obs.L("set", "all"))
	agree := reg.Histogram(MetricPosterior, "Posterior assertion probabilities of the latest refit, by agreement with the reference.",
		PosteriorBuckets(), obs.L("set", "agree"))
	for j, p := range r.Result.Posterior {
		all.Observe(p)
		if lab, ok := labels(j); ok && (p > decisionThreshold) == lab {
			agree.Observe(p)
		}
	}
	if v.Drift != nil {
		reg.Gauge(MetricDriftStat, "Largest per-source Page-Hinkley drift statistic at the latest tick.").Set(v.Drift.MaxStat)
	}
}

// observeDrift feeds this tick into every detector and collects alarms.
// Sources are visited in ascending id order, so alarm order — and the
// verdict bytes — never depend on map iteration or scheduling.
func (m *Monitor) observeDrift(r Refit, v *Verdict) *DriftStatus {
	o := m.opts
	st := &DriftStatus{MaxStatSource: -1, EdgeRate: -1}

	if p := r.Result.Params; p != nil {
		m.perSource = growPageHinkleys(m.perSource, len(p.Sources),
			o.DriftDelta, o.DriftLambda, o.MinObs, o.Window)
		st.SourcesTracked = len(p.Sources)
		for i := range p.Sources {
			// Track the posterior reliability t_i rather than the raw claim
			// rate a_i: t_i is scale-free, so the detector sees "this source
			// went bad", not "this source tweets less".
			stat, alarm := m.perSource[i].observe(p.Sources[i].Reliability(p.Z), m.tick)
			if stat > st.MaxStat {
				st.MaxStat = stat
				st.MaxStatSource = i
			}
			if alarm {
				win, start := m.perSource[i].win.snapshot()
				m.fireAlarm(v, Alarm{
					Kind: AlarmSourceReliability, Source: i, Tick: m.tick,
					Stat: stat, Threshold: o.DriftLambda,
					StartTick: start, Window: win,
				})
			}
		}
	}

	if m.depDet == nil {
		m.depDet = newCUSUM(churnDelta, churnLambda, o.MinObs, o.Window)
		m.edgeDet = newCUSUM(churnDelta, churnLambda, o.MinObs, o.Window)
	}
	if n := r.Dataset.NumClaims(); n > 0 {
		st.DependentFraction = float64(r.Dataset.NumDependentClaims()) / float64(n)
	}
	var alarm bool
	st.DependentStat, alarm = m.depDet.observe(st.DependentFraction, m.tick)
	if alarm {
		win, start := m.depDet.win.snapshot()
		m.fireAlarm(v, Alarm{
			Kind: AlarmDependentFraction, Source: -1, Tick: m.tick,
			Stat: st.DependentStat, Threshold: churnLambda,
			StartTick: start, Window: win,
		})
	}
	if r.Edges >= 0 {
		newEdges := 0
		if m.prevEdges >= 0 {
			newEdges = r.Edges - m.prevEdges
			if newEdges < 0 {
				newEdges = 0
			}
		}
		m.prevEdges = r.Edges
		st.EdgeRate = 0
		if n := r.Dataset.NumClaims(); n > 0 {
			st.EdgeRate = float64(newEdges) / float64(n)
		}
		st.EdgeStat, alarm = m.edgeDet.observe(st.EdgeRate, m.tick)
		if alarm {
			win, start := m.edgeDet.win.snapshot()
			m.fireAlarm(v, Alarm{
				Kind: AlarmEdgeRate, Source: -1, Tick: m.tick,
				Stat: st.EdgeStat, Threshold: churnLambda,
				StartTick: start, Window: win,
			})
		}
	}
	return st
}

// boundBins is the lattice resolution of the monitor's bound: every
// distinct dependency column on 4,096 bins over ±60 logits.
const boundBins = 1 << 12

// ErrorBound computes the bound the monitor tracks for a fitted dataset:
// the paper's Eq. (3) by the deterministic lattice convolution over every
// distinct dependency column, so the same refit always yields the same
// bound and no generator is consulted.
func ErrorBound(ctx context.Context, ds *claims.Dataset, p *model.Params) (bound.Result, error) {
	return bound.ForDatasetContext(ctx, ds, p, bound.DatasetOptions{
		Method:      bound.MethodConvolution,
		Convolution: bound.ConvolutionOptions{Bins: boundBins},
	}, nil)
}

// evaluateBound compares ErrorBound on the refit's fitted parameters with
// the observed disagreement rate.
func (m *Monitor) evaluateBound(ctx context.Context, r Refit, observed float64) *BoundStatus {
	res, err := ErrorBound(ctx, r.Dataset, r.Result.Params)
	if err != nil {
		return nil
	}
	bs := &BoundStatus{
		Tick:     m.tick,
		Bound:    res.Err,
		Observed: observed,
		Exceeded: observed > res.Err,
	}
	if res.Err > 0 {
		bs.Ratio = observed / res.Err
	}
	// A zero bound with nonzero observed error leaves Ratio at 0 (JSON has
	// no +Inf); Exceeded already carries the red flag.
	return bs
}

// fireAlarm records an alarm into the verdict and the monitor history,
// bumps the alarm counter, and snapshots the window into the flight
// recorder.
func (m *Monitor) fireAlarm(v *Verdict, a Alarm) {
	if f := m.opts.Flight; f != nil {
		a.TraceID = alarmTraceID(a)
		f.Record(alarmTrace(a, m.opts.Clock))
	}
	v.Alarms = append(v.Alarms, a)
	m.alarms = append(m.alarms, a)
	if reg := m.opts.Metrics; reg != nil {
		reg.Counter(MetricAlarms, "Quality alarms by kind.", obs.L("kind", a.Kind)).Inc()
	}
}

// alarmTraceID derives the deterministic flight-recorder id of an alarm's
// window snapshot.
func alarmTraceID(a Alarm) string {
	if a.Source >= 0 {
		return fmt.Sprintf("qual-%06d-%s-s%d", a.Tick, a.Kind, a.Source)
	}
	return fmt.Sprintf("qual-%06d-%s", a.Tick, a.Kind)
}

// alarmTrace renders an alarm's offending window as a trace: one event per
// retained observation (N = 1-based position, Value = the observation),
// status "alarm" so the flight recorder parks it in the failed ring.
func alarmTrace(a Alarm, clock func() time.Time) *trace.Trace {
	tb := trace.NewBuilder(a.TraceID, "qual", clock)
	tb.SetAttr("kind", a.Kind)
	if a.Source >= 0 {
		tb.SetAttr("source", fmt.Sprintf("%d", a.Source))
	}
	tb.SetAttr("tick", fmt.Sprintf("%d", a.Tick))
	tb.SetAttr("startTick", fmt.Sprintf("%d", a.StartTick))
	tb.SetAttr("stat", fmt.Sprintf("%g", a.Stat))
	tb.SetAttr("threshold", fmt.Sprintf("%g", a.Threshold))
	hook := tb.Hook()
	for i, x := range a.Window {
		hook(runctx.Iteration{Algorithm: a.Kind, N: i + 1, Value: x, HasValue: true})
	}
	return tb.Finish(TraceStatusAlarm,
		fmt.Sprintf("%s drift alarm at tick %d: stat %g > threshold %g", a.Kind, a.Tick, a.Stat, a.Threshold))
}

// PosteriorBuckets returns the fixed posterior histogram layout: ten
// equal-width bins over [0, 1].
func PosteriorBuckets() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
}
