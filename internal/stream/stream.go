// Package stream provides an incremental fact-finder for social data
// streams, the extension direction the paper cites as [21] (Yao et al.,
// "Recursive ground truth estimator for social data streams", IPSN 2016).
//
// A stream.Estimator ingests timestamped claims in batches. After each
// batch it rebuilds the (sparse) dataset seen so far and re-estimates truth
// posteriors with EM-Ext — but warm-started from the previous batch's
// parameter estimates, so late batches converge in a handful of iterations
// instead of a full cold fit. Sources and assertions may appear at any
// time; the id spaces grow monotonically.
package stream

import (
	"context"
	"errors"
	"fmt"
	"time"

	"depsense/internal/claims"
	"depsense/internal/core"
	"depsense/internal/depgraph"
	"depsense/internal/factfind"
	"depsense/internal/model"
	"depsense/internal/obs"
)

// Metric names recorded into Options.Metrics, one catalog entry per series
// (see DESIGN.md §10).
const (
	// MetricFits counts completed refits by mode ("cold" for the full
	// first fit, "warm" for parameter-carrying refits).
	MetricFits = "depsense_stream_fits_total"
	// MetricFitSeconds is the refit-duration histogram by mode.
	MetricFitSeconds = "depsense_stream_fit_duration_seconds"
	// MetricBuildSeconds is the histogram of the dataset rebuild (the D
	// derivation, depgraph.BuildDataset) that precedes every refit.
	MetricBuildSeconds = "depsense_stream_build_duration_seconds"
	// MetricSources / MetricAssertions / MetricClaims gauge the accumulated
	// stream id spaces and claim count.
	MetricSources    = "depsense_stream_sources"
	MetricAssertions = "depsense_stream_assertions"
	MetricClaims     = "depsense_stream_claims"
	// MetricLastRefitAge gauges seconds since the last completed refit —
	// the staleness signal ops watch, as opposed to the fit counters.
	MetricLastRefitAge = "depsense_stream_last_refit_age_seconds"
)

// Options tunes the incremental estimator.
type Options struct {
	// EM configures the underlying estimator; Smoothing and Workers are
	// honored on every fit. DepMode, MaxIters and Tol apply to the
	// cold first fit only: a warm refit starts from the previous estimate
	// through core.Options.Init, which core.RunCtx always fits with the
	// joint EM-Ext, whatever DepMode says, capped at 60 iterations and
	// stopped at tolerance 1e-3. The cold fit is vote-initialized and so
	// runs core's SQUAREM cycles; warm refits iterate the plain EM map.
	EM core.Options
	// Metrics, when set, receives fit telemetry: MetricFits counters and
	// MetricFitSeconds histograms labeled mode="cold"/"warm", and the
	// MetricBuildSeconds histogram. Nil records nothing.
	Metrics *obs.Registry
	// Clock supplies the fit-duration timestamps; nil means the wall
	// clock. Injected so the package honors the clocked-zone lint
	// contract and fit durations are testable.
	Clock func() time.Time
	// OnRefit, when set, fires synchronously after every completed refit,
	// once the new estimate is installed as the estimator's state — the
	// attachment point for the estimation-quality monitor (internal/qual).
	// It runs on the AddBatch caller's goroutine under the caller's
	// context; a cancelled or failed refit does not fire it.
	OnRefit func(ctx context.Context, ev RefitEvent)
}

// RefitEvent describes one completed refit to Options.OnRefit.
type RefitEvent struct {
	// Fit is the 0-based index of this refit; Warm whether it warm-started.
	Fit  int
	Warm bool
	// Result and Dataset are the refit's estimate and the dataset behind
	// it — the same values a subsequent Result()/Dataset() would return.
	Result  *factfind.Result
	Dataset *claims.Dataset
	// Edges is the cumulative follow-edge count observed so far.
	Edges int
}

// Estimator accumulates a claim stream and maintains truth estimates.
type Estimator struct {
	opts      Options
	graph     *depgraph.Graph
	events    []depgraph.Event
	numSrc    int
	numAssert int

	params   *model.Params // warm-start parameters from the last fit
	scratch  *core.Scratch // kernel buffers reused by every refit
	last     *factfind.Result
	lastDS   *claims.Dataset
	fits     int
	warmFits int
	coldFits int
	lastFit  time.Time
	clock    func() time.Time
}

// Warm refits stop sooner than a cold fit: warm starts need fewer
// iterations, and streaming estimates are revised on the next batch
// anyway, so the cold fit's strict tolerance buys nothing but iterations.
const (
	warmMaxIters = 60
	warmTol      = 1e-3
)

// New creates an empty streaming estimator.
func New(opts Options) *Estimator {
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Estimator{
		opts:    opts,
		graph:   depgraph.NewGraph(0),
		clock:   clock,
		scratch: core.NewScratch(),
	}
}

// Errors returned by the estimator.
var (
	ErrNoData   = errors.New("stream: no claims ingested yet")
	ErrBadEvent = errors.New("stream: invalid event")
)

// ObserveFollow records a follow edge (follower sees followee's claims).
// New source ids grow the id space. A self-follow is a no-op: it records no
// edge and grows nothing, so every id below the id space stays referenced
// by an event, a follow edge or the parameters (which Restore relies on).
func (e *Estimator) ObserveFollow(follower, followee int) error {
	if follower < 0 || followee < 0 {
		return fmt.Errorf("%w: follow(%d -> %d)", ErrBadEvent, follower, followee)
	}
	if follower == followee {
		return nil
	}
	e.growSources(max(follower, followee) + 1)
	return e.graph.AddFollow(follower, followee)
}

// AddBatch ingests a batch of claims and refits the estimator.
func (e *Estimator) AddBatch(batch []depgraph.Event) (*factfind.Result, error) {
	return e.AddBatchContext(context.Background(), batch)
}

// AddBatchContext ingests a batch of claims and refits the estimator under
// ctx. Batch ingestion is atomic: the whole batch is validated before
// anything is mutated, so a rejected batch leaves the estimator's state —
// events, id spaces, follow graph, warm-start parameters — exactly as it
// was, and the caller can fix and resubmit. (Appending events one-by-one
// before validating the rest used to leave a half-ingested batch behind a
// mid-batch error, silently corrupting every later fit.)
//
// Cancelling mid-refit keeps the estimator's previous estimate: the batch
// is still ingested (the events are recorded and the id spaces grown), but
// the warm-start parameters and latest estimate stay those of the last
// completed fit, so the next AddBatch refits over all accumulated events.
func (e *Estimator) AddBatchContext(ctx context.Context, batch []depgraph.Event) (*factfind.Result, error) {
	// Validate the full batch before mutating any estimator state.
	maxSrc, maxAssert := -1, -1
	for _, ev := range batch {
		if ev.Source < 0 || ev.Assertion < 0 {
			return nil, fmt.Errorf("%w: %+v", ErrBadEvent, ev)
		}
		if ev.Source > maxSrc {
			maxSrc = ev.Source
		}
		if ev.Assertion > maxAssert {
			maxAssert = ev.Assertion
		}
	}
	if len(e.events)+len(batch) == 0 {
		return nil, ErrNoData
	}
	e.growSources(maxSrc + 1)
	if maxAssert >= e.numAssert {
		e.numAssert = maxAssert + 1
	}
	e.events = append(e.events, batch...)
	buildStart := e.clock()
	ds, err := depgraph.BuildDataset(e.graph, e.events, e.numAssert)
	if err != nil {
		return nil, err
	}
	if reg := e.opts.Metrics; reg != nil {
		reg.Histogram(MetricBuildSeconds, "Stream dataset build (D derivation) duration in seconds.",
			nil).Observe(e.clock().Sub(buildStart).Seconds())
	}

	opts := e.opts.EM
	// Every refit of this estimator runs through the same Scratch, so a
	// stable-sized stream refits without growing the kernel buffers at all
	// (AddBatch is not safe for concurrent use, so neither is sharing the
	// scratch a new hazard).
	opts.Scratch = e.scratch
	warm := e.params != nil && e.params.NumSources() == ds.N()
	if warm {
		opts.Init = e.params
		opts.MaxIters = warmMaxIters
		opts.Tol = warmTol
	}
	start := e.clock()
	res, err := core.RunCtx(ctx, ds, core.VariantExt, opts)
	if err != nil {
		// On cancellation res carries the partial fit; surface it to the
		// caller but do not install it as the warm-start state.
		return res, err
	}
	e.recordFit(warm, e.clock().Sub(start))
	e.params = res.Params.Clone()
	e.last = res
	e.lastDS = ds
	e.fits++
	if e.opts.OnRefit != nil {
		e.opts.OnRefit(ctx, RefitEvent{
			Fit:     e.fits - 1,
			Warm:    warm,
			Result:  res,
			Dataset: ds,
			Edges:   e.graph.NumEdges(),
		})
	}
	return res, nil
}

// recordFit tracks warm/cold fit counts and, when a registry is attached,
// exports the fit telemetry.
func (e *Estimator) recordFit(warm bool, d time.Duration) {
	mode := "cold"
	if warm {
		mode = "warm"
		e.warmFits++
	} else {
		e.coldFits++
	}
	e.lastFit = e.clock()
	if reg := e.opts.Metrics; reg != nil {
		reg.Counter(MetricFits, "Completed stream refits by mode (cold first fit vs warm-started refit).",
			obs.L("mode", mode)).Inc()
		reg.Histogram(MetricFitSeconds, "Stream refit duration in seconds by mode.",
			nil, obs.L("mode", mode)).Observe(d.Seconds())
	}
	e.ExportGauges()
}

// ExportGauges publishes the current stream-size gauges and the
// last-refit-age gauge into the attached registry. It runs after every
// completed fit; long-lived services should also call it on scrape (or on a
// timer), since the age gauge goes stale between fits by definition.
func (e *Estimator) ExportGauges() {
	reg := e.opts.Metrics
	if reg == nil {
		return
	}
	reg.Gauge(MetricSources, "Sources in the accumulated stream id space.").Set(float64(e.numSrc))
	reg.Gauge(MetricAssertions, "Assertions in the accumulated stream id space.").Set(float64(e.numAssert))
	reg.Gauge(MetricClaims, "Claim events accumulated over the stream.").Set(float64(len(e.events)))
	if !e.lastFit.IsZero() {
		age := e.clock().Sub(e.lastFit).Seconds()
		if age < 0 {
			age = 0
		}
		reg.Gauge(MetricLastRefitAge, "Seconds since the last completed refit.").Set(age)
	}
}

// growSources extends the id space and carries prior parameter estimates
// over, giving brand-new sources neutral warm-start channels.
func (e *Estimator) growSources(n int) {
	if n <= e.numSrc {
		return
	}
	e.graph.Grow(n)
	if e.params != nil {
		p := model.NewParams(n, e.params.Z)
		copy(p.Sources, e.params.Sources)
		for i := e.numSrc; i < n; i++ {
			p.Sources[i] = model.SourceParams{A: 0.5, B: 0.5, F: 0.5, G: 0.5}
		}
		e.params = p
	}
	e.numSrc = n
}

// Result returns the latest estimate.
func (e *Estimator) Result() (*factfind.Result, error) {
	if e.last == nil {
		return nil, ErrNoData
	}
	return e.last, nil
}

// Dataset returns the dataset underlying the latest estimate.
func (e *Estimator) Dataset() (*claims.Dataset, error) {
	if e.lastDS == nil {
		return nil, ErrNoData
	}
	return e.lastDS, nil
}

// Stats describes the stream state.
type Stats struct {
	Sources    int
	Assertions int
	Claims     int
	Fits       int
	// WarmFits counts the refits that warm-started from the previous
	// batch's parameters; ColdFits the full fits. They sum to Fits.
	WarmFits int
	ColdFits int
}

// Stats reports the accumulated stream size and fit counts.
func (e *Estimator) Stats() Stats {
	return Stats{
		Sources:    e.numSrc,
		Assertions: e.numAssert,
		Claims:     len(e.events),
		Fits:       e.fits,
		WarmFits:   e.warmFits,
		ColdFits:   e.coldFits,
	}
}
