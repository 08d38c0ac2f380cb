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
//     Gibbs approximation of Algorithm 1 under a compute budget) and
//     compared against the observed disagreement rate — empirical error
//     exceeding the bound is the immediate red flag the paper's theory
//     licenses;
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
// for the cmd/ssqual offline checker.
package qual

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"depsense/internal/baselines"
	"depsense/internal/bound"
	"depsense/internal/claims"
	"depsense/internal/factfind"
	"depsense/internal/obs"
	"depsense/internal/randutil"
	"depsense/internal/trace"
)

// Metric names exported by the monitor (DESIGN.md §16 has the catalog).
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

// SpillFile is the quality spill filename under Options.SpillDir.
const SpillFile = "quality.jsonl"

// Options configures a Monitor. The zero value selects the documented
// defaults with drift detection on, the bound evaluated every 8 refits,
// and live-mode (Voting agreement) calibration.
type Options struct {
	// CalibrationBuckets is the reliability-diagram bin count (default 10).
	CalibrationBuckets int
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
	// ChurnDelta / ChurnLambda tune the graph-churn CUSUM detectors
	// (defaults 0.01 and 0.1). The edge-rate series is normalized by the
	// batch claim count, so the thresholds are scale-free.
	ChurnDelta  float64
	ChurnLambda float64
	// DisableDrift turns the drift detectors off — the right mode when
	// refits are unrelated datasets (the per-request HTTP service) rather
	// than one evolving stream.
	DisableDrift bool

	// BoundEvery evaluates the error bound every n-th refit; 0 selects 8,
	// negative disables bound tracking.
	BoundEvery int
	// BoundSeed seeds the bound evaluation's private generator; each
	// evaluation derives its own deterministic seed from it and the tick.
	BoundSeed int64
	// BoundMaxColumns caps the distinct dependency columns evaluated per
	// bound (sampled and reweighted beyond it; default 16).
	BoundMaxColumns int
	// BoundSweeps caps the Gibbs sweeps per column (default 400).
	BoundSweeps int
	// Workers bounds the bound evaluation's parallelism; the result is
	// identical at any value.
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
	// for offline analysis with cmd/ssqual. The directory must exist.
	SpillDir string
}

func (o Options) withDefaults() Options {
	if o.CalibrationBuckets <= 0 {
		o.CalibrationBuckets = 10
	}
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
	if o.ChurnDelta <= 0 {
		o.ChurnDelta = 0.01
	}
	if o.ChurnLambda <= 0 {
		o.ChurnLambda = 0.1
	}
	if o.BoundEvery == 0 {
		o.BoundEvery = 8
	}
	if o.BoundMaxColumns <= 0 {
		o.BoundMaxColumns = 16
	}
	if o.BoundSweeps <= 0 {
		o.BoundSweeps = 400
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
	// Bound is the computed expected error bound; StdErr its Monte-Carlo
	// standard error; Sweeps the Gibbs sweeps spent.
	Bound  float64 `json:"bound"`
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
	perSource []*pageHinkley
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
	v.Calibration = m.calibrate(ctx, r)
	if !o.DisableDrift {
		v.Drift = m.observeDrift(r, v)
	}
	m.exportCalibration(r, v)
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
		if err := AppendVerdict(o.SpillDir, v); err != nil {
			return v, fmt.Errorf("qual: spill verdict %d: %w", v.Tick, err)
		}
	}
	return v, nil
}

// calibrate computes the tick's calibration block against ground truth or
// the Voting baseline.
func (m *Monitor) calibrate(ctx context.Context, r Refit) Calibration {
	if m.opts.Truth != nil {
		return computeCalibration(m.opts.CalibrationBuckets, r.Result.Posterior, m.opts.Truth, "truth")
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
	return computeCalibration(m.opts.CalibrationBuckets, r.Result.Posterior, label, "voting")
}

// exportCalibration publishes the calibration gauges and the posterior
// histograms.
func (m *Monitor) exportCalibration(r Refit, v *Verdict) {
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
	labels := referenceLabels(m.opts, r, v)
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

// referenceLabels rebuilds the label function used by the histograms.
// Truth mode reuses Options.Truth; voting mode re-derives the decisions
// (one extra Voting pass only when a registry is attached).
func referenceLabels(o Options, r Refit, v *Verdict) func(int) (bool, bool) {
	if o.Truth != nil {
		return o.Truth
	}
	ref, err := (&baselines.Voting{}).Run(r.Dataset)
	if err != nil {
		return func(int) (bool, bool) { return false, false }
	}
	dec := ref.Decisions(decisionThreshold)
	return func(j int) (bool, bool) {
		if j >= len(dec) {
			return false, false
		}
		return dec[j], true
	}
}

// observeDrift feeds this tick into every detector and collects alarms.
// Sources are visited in ascending id order, so alarm order — and the
// verdict bytes — never depend on map iteration or scheduling.
func (m *Monitor) observeDrift(r Refit, v *Verdict) *DriftStatus {
	o := m.opts
	st := &DriftStatus{MaxStatSource: -1, EdgeRate: -1}

	if p := r.Result.Params; p != nil {
		for len(m.perSource) < len(p.Sources) {
			m.perSource = append(m.perSource,
				newPageHinkley(o.DriftDelta, o.DriftLambda, o.MinObs, o.Window))
		}
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
		m.depDet = newCUSUM(o.ChurnDelta, o.ChurnLambda, o.MinObs, o.Window)
		m.edgeDet = newCUSUM(o.ChurnDelta, o.ChurnLambda, o.MinObs, o.Window)
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
			Stat: st.DependentStat, Threshold: o.ChurnLambda,
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
				Stat: st.EdgeStat, Threshold: o.ChurnLambda,
				StartTick: start, Window: win,
			})
		}
	}
	return st
}

// evaluateBound runs the paper's error bound on the refit's fitted
// parameters under the configured compute budget. The generator is
// re-derived from BoundSeed and the tick, so evaluations are independent
// of each other and of everything else in the process.
func (m *Monitor) evaluateBound(ctx context.Context, r Refit, observed float64) *BoundStatus {
	o := m.opts
	rng := randutil.New(o.BoundSeed ^ (int64(m.tick)+1)*0x6A09E667F3BCC909)
	res, err := bound.ForDatasetContext(ctx, r.Dataset, r.Result.Params, bound.DatasetOptions{
		Method: bound.MethodApprox,
		Approx: bound.ApproxOptions{
			BurnIn:     o.BoundSweeps / 4,
			MaxSweeps:  o.BoundSweeps,
			CheckEvery: o.BoundSweeps / 4,
			Tol:        1e-3,
		},
		MaxColumns: o.BoundMaxColumns,
		Workers:    o.Workers,
	}, rng)
	if err != nil {
		return nil
	}
	bs := &BoundStatus{
		Tick:     m.tick,
		Bound:    res.Err,
		StdErr:   res.StdErr,
		Sweeps:   res.Sweeps,
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
		hook(alarmIteration(a.Kind, i+1, x))
	}
	return tb.Finish(TraceStatusAlarm,
		fmt.Sprintf("%s drift alarm at tick %d: stat %g > threshold %g", a.Kind, a.Tick, a.Stat, a.Threshold))
}

// PosteriorBuckets returns the fixed posterior histogram layout: ten
// equal-width bins over [0, 1].
func PosteriorBuckets() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
}

// AppendVerdict appends one verdict to dir/quality.jsonl as a single JSON
// line — the spill read back by ReadFile and cmd/ssqual.
func AppendVerdict(dir string, v *Verdict) error {
	f, err := os.OpenFile(filepath.Join(dir, SpillFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := writeVerdict(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
