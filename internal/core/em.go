// Package core implements the paper's primary contribution: the
// dependency-aware maximum-likelihood estimator EM-Ext (Section IV,
// Algorithm 2). The estimator jointly infers the source parameter set
// θ = {a_i, b_i, f_i, g_i, z} and per-assertion truth posteriors
// P(C_j = 1 | SC; θ) from the source-claim matrix and the dependency
// indicators alone, iterating the E-step of Eq. (9) against the closed-form
// M-step of Eqs. (10)-(14) until convergence.
//
// The same expectation-maximization engine also powers the two model-based
// baselines the paper compares against — EM (IPSN'12, source independence
// assumed) and EM-Social (IPSN'14, dependent claims discarded) — selected by
// a Variant. Those baselines are exposed under internal/baselines; this
// package exposes EMExt.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"depsense/internal/claims"
	"depsense/internal/factfind"
	"depsense/internal/model"
	"depsense/internal/parallel"
	"depsense/internal/runctx"
)

// Variant selects which likelihood the EM engine maximizes.
type Variant int

// EM variants.
const (
	// VariantExt is the paper's dependency-aware estimator: independent
	// pairs go through the (a_i, b_i) channel, dependent pairs (claimed or
	// silent) through the (f_i, g_i) channel.
	VariantExt Variant = iota + 1
	// VariantIndependent is EM (IPSN'12): the dependency indicators are
	// ignored and every pair goes through the (a_i, b_i) channel.
	VariantIndependent
	// VariantSocial is EM-Social (IPSN'14): dependent claims are treated as
	// unobserved — they contribute no likelihood factor and are excluded
	// from the M-step sums.
	VariantSocial
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantExt:
		return "EM-Ext"
	case VariantIndependent:
		return "EM"
	case VariantSocial:
		return "EM-Social"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Options tunes an EM run. The zero value selects sensible defaults.
type Options struct {
	// MaxIters caps EM iterations (default 200).
	MaxIters int
	// Tol declares convergence when no parameter moves more than Tol
	// between iterations (default 1e-6).
	Tol float64
	// Deprecated: no effect. EM starts from vote initialization or Init,
	// neither of which reads randomness.
	Seed int64
	// Init overrides vote initialization with explicit parameters. The
	// parameter set is copied; the caller's value is not mutated. An
	// Init run is always the joint fit: under VariantExt it ignores
	// DepMode and iterates Algorithm 2 over all of θ from Init.
	Init *model.Params
	// Smoothing is the strength (in pseudo-observations) of the M-step's
	// empirical-Bayes shrinkage for the independent channel (a_i, b_i):
	// each per-source estimate is pulled toward the pooled all-source
	// estimate of the same channel. The dependent channel (f_i, g_i) is
	// shrunk with depSmoothing. Negative disables all smoothing (the
	// paper's raw M-step); zero selects the default (2).
	Smoothing float64
	// DepMode controls how VariantExt fits the dependent channel; see
	// DepMode. Zero selects DepModeAuto.
	DepMode DepMode
	// Workers bounds the run's parallelism: the E-step and M-step shard
	// across fixed-size blocks of assertions/sources on up to Workers
	// goroutines. Results are bit-for-bit identical for every Workers
	// value because the block decomposition and all reduction orders are
	// fixed (see DESIGN.md, "Deterministic parallel execution"). 0 or 1
	// runs serial.
	Workers int
	// Scratch, when non-nil, supplies preallocated kernel buffers reused
	// across fits (see Scratch). It must not be shared by concurrent runs.
	// Nil allocates internally.
	Scratch *Scratch
}

const (
	// depSmoothing is Smoothing's counterpart for the dependent channel
	// (f_i, g_i), which typically rests on far fewer pairs per source — on
	// Twitter-sparse data a couple — so it is stronger. A source with only
	// a handful of dependent pairs then keeps essentially the pooled
	// channel, while sources with dozens (dense simulation data) retain
	// per-source resolution. Negative Smoothing disables it too.
	depSmoothing = 8
	// denseThreshold is the dependent-pairs-per-source level at or above
	// which DepModeAuto selects the joint fit.
	denseThreshold = 5
)

// DepMode selects EM-Ext's strategy for the dependent channel (f_i, g_i).
//
// The dependency-aware likelihood is only as identifiable as the dependent
// strata are populated. On dense matrices (the paper's simulations: tens of
// dependent pairs per source) the full joint EM of Algorithm 2 works and is
// the most accurate. On Twitter-sparse matrices (a couple of dependent
// pairs per source) the per-source dependent parameters are unidentified
// and the joint likelihood drifts into a "popularity" labeling: heavily
// retweeted assertions are relabeled true, the dependent channel inverts to
// match, and accuracy collapses — observed directly, and the likelihood
// cannot detect it (the drifted optimum scores higher). The plug-in mode
// guards against this: fit the dependency-blind model first, estimate ONE
// pooled dependent channel from its posteriors, and re-score once.
type DepMode int

// Dependent-channel fitting modes.
const (
	// DepModeAuto (default) picks DepModeJoint when the dataset has at
	// least denseThreshold (5) dependent pairs per source, DepModePlugin
	// otherwise.
	DepModeAuto DepMode = iota
	// DepModeJoint runs the full joint EM over all of θ (Algorithm 2).
	DepModeJoint
	// DepModePlugin fits EM-Social, then plugs in a single pooled
	// (f, g) estimate and re-scores with one E-step.
	DepModePlugin
)

func (o Options) normalized() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.Smoothing == 0 {
		o.Smoothing = 2
	} else if o.Smoothing < 0 {
		o.Smoothing = 0
	}
	return o
}

// Errors returned by the estimators.
var (
	ErrEmptyDataset = errors.New("core: dataset has no sources or no assertions")
	ErrParamsShape  = errors.New("core: initial parameters do not match dataset")
)

// EMExt is the paper's dependency-aware estimator.
type EMExt struct {
	Opts Options
}

var _ factfind.FactFinder = (*EMExt)(nil)

// Name implements factfind.FactFinder.
func (e *EMExt) Name() string { return "EM-Ext" }

// RunContext implements factfind.FactFinder.
func (e *EMExt) RunContext(ctx context.Context, ds *claims.Dataset) (*factfind.Result, error) {
	return RunCtx(ctx, ds, VariantExt, e.Opts)
}

// RunCtx executes the EM engine for the given variant under a run-context.
// EM starts from Options.Init when set, otherwise from vote initialization
// (see votePosteriors); neither reads randomness, so a run is a function of
// the dataset and options alone. A vote-initialized (cold) fit iterates
// SQUAREM cycles, a warm one the plain map (see runOnce). DepMode is
// resolved only for a vote-initialized VariantExt run: with Init set, the
// run is the joint EM whatever DepMode says. Cancellation is checked once
// per E/M iteration; on cancellation it returns the context's error
// together with the partial result (posteriors from the last completed
// E-step, Stopped set from the context error). Any runctx hook on ctx
// fires after every iteration with the current log-likelihood.
func RunCtx(ctx context.Context, ds *claims.Dataset, variant Variant, opts Options) (*factfind.Result, error) {
	opts = opts.normalized()
	if ds.N() == 0 || ds.M() == 0 {
		return nil, ErrEmptyDataset
	}
	if err := runctx.Err(ctx); err != nil {
		return nil, err
	}
	if opts.Init != nil {
		if err := opts.Init.Validate(); err != nil {
			return nil, fmt.Errorf("core: init params: %w", err)
		}
		if opts.Init.NumSources() != ds.N() {
			return nil, fmt.Errorf("%w: init has %d sources, dataset %d",
				ErrParamsShape, opts.Init.NumSources(), ds.N())
		}
		return runOnce(ctx, ds, variant, opts.Init.Clone(), nil, opts)
	}
	if variant == VariantExt && depMode(ds, opts) == DepModePlugin {
		return runPlugin(ctx, ds, opts)
	}
	return runOnce(ctx, ds, variant, model.NewParams(ds.N(), 0.5), votePosteriors(ds), opts)
}

// votePosteriors seeds per-assertion posteriors from support counts in a
// scale-free way: count/(count + meanCount), which maps the average-support
// assertion to 0.5 on dense simulation matrices (tens of claims per
// assertion) and sparse Twitter-scale ones (one or two claims per
// assertion) alike. Normalizing by the number of sources instead collapses
// every seed toward zero on sparse data and strands EM in a degenerate
// "everything is false" basin. Anchoring "more support ⇒ more credible"
// places EM in the basin where sources are better than chance, resolving
// the likelihood's global label-swap symmetry; this is the standard
// initialization for truth-discovery EM (DESIGN.md, "EM initialization").
func votePosteriors(ds *claims.Dataset) []float64 {
	post := make([]float64, ds.M())
	mean := 0.0
	for j := 0; j < ds.M(); j++ {
		mean += float64(len(ds.Claimants(j)))
	}
	mean /= float64(ds.M())
	if mean <= 0 {
		mean = 1
	}
	for j := range post {
		count := float64(len(ds.Claimants(j)))
		post[j] = model.ClampProb((count + 0.25) / (count + mean + 0.5))
	}
	return post
}

// emBlockSize is the fixed shard granularity of the E-step (assertions) and
// M-step (sources). The decomposition depends only on the problem size, so
// per-block partials reduced in block index order make every run
// scheduler-independent: Workers changes wall-clock time, never a bit of
// the result.
const emBlockSize = 256

// engine binds one run's configuration to its Scratch buffers and the
// dataset's flattened sparse view. All mutable per-iteration state lives in
// the embedded Scratch, which outlives the engine when the caller passed
// one through Options.Scratch.
type engine struct {
	ds        *claims.Dataset
	sv        *claims.SparseView
	variant   Variant
	smooth    float64
	smoothDep float64
	workers   int

	*Scratch
}

// newEngine prepares an engine for one fit, borrowing the caller's Scratch
// when provided (and safe) or allocating a private one.
func newEngine(ds *claims.Dataset, variant Variant, opts Options) *engine {
	s := opts.Scratch
	if s == nil {
		s = NewScratch()
	}
	s.grow(ds.N(), ds.M())
	smoothDep := 0.0
	if opts.Smoothing > 0 {
		smoothDep = depSmoothing
	}
	return &engine{
		ds:        ds,
		sv:        ds.Sparse(),
		variant:   variant,
		smooth:    opts.Smoothing,
		smoothDep: smoothDep,
		workers:   opts.Workers,
		Scratch:   s,
	}
}

// runOnce executes one EM run from params, or — when seedPost is set —
// from the parameters one M-step derives from those seed posteriors. A
// vote-initialized (cold) run iterates SQUAREM cycles (see squarem); a run
// from explicit parameters (warm) iterates the plain map.
func runOnce(ctx context.Context, ds *claims.Dataset, variant Variant, params *model.Params, seedPost []float64, opts Options) (*factfind.Result, error) {
	eng := newEngine(ds, variant, opts)
	params.Clamp()
	if seedPost != nil {
		// Vote initialization: derive θ from the seed posteriors via one
		// M-step before the first E-step.
		copy(eng.post, seedPost)
		eng.mStep(params)
	} else {
		// A reused Scratch may carry a previous fit's posteriors; zero them
		// so a cancellation before the first E-step surfaces the same
		// all-zero partial state a fresh allocation would.
		clear(eng.post)
	}

	f := &fit{
		ctx: ctx, eng: eng, params: params, opts: opts,
		hook:  runctx.HookFrom(ctx),
		start: time.Now(), //lint:allow seedsource wall-clock timing for the observability hook Elapsed field, not part of results
	}
	result := func(stopped string) *factfind.Result {
		return &factfind.Result{
			Posterior:     append([]float64(nil), eng.post...),
			Params:        params,
			Iterations:    f.iter,
			Converged:     f.converged,
			LogLikelihood: f.ll,
			Stopped:       stopped,
		}
	}
	var err error
	if seedPost != nil {
		err = f.squarem()
	} else {
		for stop := false; !stop && err == nil; {
			stop, err = f.step()
		}
	}
	if err != nil {
		return result(runctx.Reason(err)), err
	}
	// Final E-step so posteriors reflect the final parameters.
	eng.refreshLogs(params)
	f.ll = eng.eStep(params)
	if !f.converged {
		f.hook.Emit(f.iteration(true, runctx.StopIterationCap))
	}
	return result(runctx.StopOf(f.converged)), nil
}

// fit is one run's iteration state: every map F = refreshLogs → eStep →
// mStep it applies to params goes through step, which does the accounting.
type fit struct {
	ctx    context.Context
	eng    *engine
	params *model.Params
	opts   Options
	hook   runctx.Hook
	start  time.Time

	iter      int     // maps applied so far
	converged bool    // the last map moved no parameter by Tol or more
	ll        float64 // log-likelihood at the last map's input
	// jump marks the next map's input as not F of the previous map's
	// input: an extrapolated point, or a restart after a rejected one.
	jump bool
}

// iteration returns the hook record for the fit's current state.
func (f *fit) iteration(done bool, stopped string) runctx.Iteration {
	return runctx.Iteration{
		Algorithm: f.eng.variant.String(), N: f.iter,
		LogLikelihood: f.ll, HasLL: f.iter > 0, Jump: f.jump,
		Elapsed: time.Since(f.start), Done: done, Stopped: stopped,
	}
}

// step applies one map to the parameters, counting it as one iteration:
// it checks cancellation once, then runs the map and fires one hook. It
// reports stop when the fit must end — converged, or at MaxIters before
// running — and the context's error on cancellation, after firing the
// final hook. On cancellation the partial state is the posteriors of the
// last completed E-step.
func (f *fit) step() (stop bool, err error) {
	if f.iter == f.opts.MaxIters {
		return true, nil
	}
	if err := runctx.Err(f.ctx); err != nil {
		f.jump = false
		f.hook.Emit(f.iteration(true, runctx.Reason(err)))
		return true, err
	}
	f.iter++
	f.eng.refreshLogs(f.params)
	f.ll = f.eng.eStep(f.params)
	f.converged = f.eng.mStep(f.params) < f.opts.Tol
	stopped := ""
	if f.converged {
		stopped = runctx.StopConverged
	}
	f.hook.Emit(f.iteration(f.converged, stopped))
	f.jump = false
	return f.converged, nil
}

// squarem iterates SQUAREM cycles (Varadhan & Roland 2008, squared
// extrapolation) over the map F on the variant's free parameters θ (see
// engine.pack). From θ0 a cycle computes θ1 = F(θ0) and θ2 = F(θ1), sets
// r = θ1 − θ0 and v = θ2 − θ1 − r, takes α = −‖r‖/‖v‖ clamped to
// [−αmax, −1], and applies one stabilising map to the extrapolated point
// θ′ = ClampProb(θ0 − 2αr + α²v). The cycle keeps F(θ′) when its residual
// ‖F(θ′) − θ′‖² is at most ‖r‖², and otherwise restarts from θ2. αmax
// starts at 1, grows fourfold after a kept step that reached it, and
// shrinks fourfold (to no less than 1) after a rejected one.
//
// Every map is one step, so a cycle is three iterations and the fit stops
// at the first map that converges. Norms are summed serially in index
// order, so the result is Workers-independent.
func (f *fit) squarem() error {
	e, p := f.eng, f.params
	x0, x1, x2 := e.thetaVectors()
	e.pack(p, x0)
	alphaMax := 1.0
	for {
		if stop, err := f.step(); stop || err != nil {
			return err
		}
		e.pack(p, x1)
		if stop, err := f.step(); stop || err != nil {
			return err
		}
		e.pack(p, x2)
		var rr, vv float64
		for k := range x0 {
			r := x1[k] - x0[k]
			v := x2[k] - x1[k] - r
			rr += r * r
			vv += v * v
		}
		alpha := -math.Sqrt(rr / vv)
		if !(alpha <= -1) { // NaN too: both differences vanished
			alpha = -1
		}
		if alpha < -alphaMax {
			alpha = -alphaMax
		}
		// θ′ overwrites θ1, read before it is written at each index.
		for k := range x0 {
			r := x1[k] - x0[k]
			v := x2[k] - x1[k] - r
			x1[k] = model.ClampProb(x0[k] - 2*alpha*r + alpha*alpha*v)
		}
		e.unpack(x1, p)
		f.jump = true
		stop, err := f.step()
		if stop || err != nil {
			return err
		}
		e.pack(p, x0)
		res := 0.0
		for k := range x0 {
			d := x0[k] - x1[k]
			res += d * d
		}
		if res <= rr {
			if alpha == -alphaMax {
				alphaMax *= 4
			}
			continue
		}
		alphaMax = math.Max(1, alphaMax/4)
		e.unpack(x2, p)
		copy(x0, x2)
		f.jump = true
	}
}

// thetaVectors returns the Scratch's three SQUAREM vectors, each as long
// as the variant's free-parameter vector: z, then a_i and b_i per source,
// plus f_i and g_i under VariantExt. EM's (f_i, g_i) mirror (a_i, b_i),
// and EM-Social never estimates them.
func (e *engine) thetaVectors() (x0, x1, x2 []float64) {
	k := 1 + 2*e.ds.N()
	if e.variant == VariantExt {
		k = 1 + 4*e.ds.N()
	}
	growTo(&e.theta, 3*k)
	return e.theta[:k], e.theta[k : 2*k], e.theta[2*k:]
}

// pack writes p's free parameters into x (see thetaVectors).
func (e *engine) pack(p *model.Params, x []float64) {
	x[0] = p.Z
	if e.variant == VariantExt {
		for i, s := range p.Sources {
			x[1+4*i], x[2+4*i], x[3+4*i], x[4+4*i] = s.A, s.B, s.F, s.G
		}
		return
	}
	for i, s := range p.Sources {
		x[1+2*i], x[2+2*i] = s.A, s.B
	}
}

// unpack is pack's inverse; under VariantIndependent it also mirrors
// (a_i, b_i) into (f_i, g_i), as the M-step does.
func (e *engine) unpack(x []float64, p *model.Params) {
	p.Z = x[0]
	src := p.Sources
	switch e.variant {
	case VariantExt:
		for i := range src {
			s := &src[i]
			s.A, s.B, s.F, s.G = x[1+4*i], x[2+4*i], x[3+4*i], x[4+4*i]
		}
	case VariantIndependent:
		for i := range src {
			s := &src[i]
			s.A, s.B = x[1+2*i], x[2+2*i]
			s.F, s.G = s.A, s.B
		}
	default:
		for i := range src {
			src[i].A, src[i].B = x[1+2*i], x[2+2*i]
		}
	}
}

// refreshLogs rebuilds the per-source log tables and folds them into the
// sparse-correction tables the E-step adds per nonzero. model.SafeLog is
// exactly math.Log on the clamped parameter range ([ProbEpsilon,
// 1-ProbEpsilon], which Clamp and the M-step guarantee), so routing
// through it changes no bits while making the log-space intent explicit
// and keeping degenerate inputs finite. Every log comes from the Scratch's
// logMemo, which returns SafeLog's value bit for bit.
//
// Only the entries an E-step of this variant will read are refreshed (see
// Scratch): the all-silent baseline always; the independent-claim pair
// for a source with an independent claim (any claim under
// VariantIndependent); and, under VariantExt only, the dependent-claim
// pair for a source with a dependent claim and the silent-dependent pair
// for a source with a silent-dependent pair. Each test is a row-pointer
// comparison on the M-step strata, which hold the same pattern as the
// E-step's by-assertion view.
func (e *engine) refreshLogs(p *model.Params) {
	d0 := e.sv.ClaimsD0.RowPtr
	d1 := e.sv.ClaimsD1.RowPtr
	sil := e.sv.SilentD1.RowPtr
	ext := e.variant == VariantExt
	anyClaim := e.variant == VariantIndependent
	memo := &e.memo
	for i, s := range p.Sources {
		la, l1a := memo.logs(s.A)
		lb, l1b := memo.logs(s.B)
		e.log1A[i] = l1a
		e.log1B[i] = l1b
		hasDep := d1[i+1] > d1[i]
		if d0[i+1] > d0[i] || anyClaim && hasDep {
			e.corrA1[i] = la - l1a
			e.corrB0[i] = lb - l1b
		}
		if !ext {
			continue
		}
		hasSil := sil[i+1] > sil[i]
		if !hasDep && !hasSil {
			continue
		}
		lf, l1f := memo.logs(s.F)
		lg, l1g := memo.logs(s.G)
		if hasDep {
			e.corrF1[i] = lf - l1a
			e.corrG0[i] = lg - l1b
		}
		if hasSil {
			e.corrSF1[i] = l1f - l1a
			e.corrSG0[i] = l1g - l1b
		}
	}
}

// eStep computes Z_j = P(C_j = 1 | SC_j; θ) for all assertions (Eq. 9) and
// returns the data log-likelihood (Eq. 7).
//
// The all-silent baseline Σ_i log(1-a_i) is shared across assertions; each
// assertion then applies precomputed sparse corrections for its claimants
// and (under VariantExt) its silent-dependent sources, so the production
// kernel costs O(n + m + nnz) rather than O(n·m); see eStepBlock.
//
// Assertions shard into fixed blocks: each block writes its posteriors
// (disjoint slots) and a block-local log-likelihood partial, and the
// partials are summed in block index order afterwards — the same reduction
// whether the blocks ran on one goroutine or many. At Workers <= 1 the
// blocks run inline without a closure so the step allocates nothing.
func (e *engine) eStep(p *model.Params) float64 {
	var base1, base0 float64
	log1A, log1B := e.log1A, e.log1B
	for i := range log1A {
		base1 += log1A[i]
		base0 += log1B[i]
	}
	logZ := model.SafeLog(p.Z)
	log1Z := model.SafeLog(1 - p.Z)

	m := e.ds.M()
	nb := parallel.Blocks(m, emBlockSize)
	llPart := e.llPart[:nb]
	if e.workers <= 1 {
		for b := 0; b < nb; b++ {
			lo, hi := parallel.BlockRange(b, m, emBlockSize)
			llPart[b] = e.eStepBlock(lo, hi, base1, base0, logZ, log1Z, &e.postMemo)
		}
	} else {
		// Concurrent blocks would race on the posterior memo's slots.
		_ = parallel.ForEach(nb, e.workers, func(b int) error {
			lo, hi := parallel.BlockRange(b, m, emBlockSize)
			llPart[b] = e.eStepBlock(lo, hi, base1, base0, logZ, log1Z, nil)
			return nil
		})
	}
	ll := 0.0
	for b := 0; b < nb; b++ {
		ll += llPart[b]
	}
	return ll
}

// mStep recomputes θ from the posteriors (Eqs. 10-14) and returns the
// convergence distance: the largest |new − old| over all 4n+1 parameters,
// taken as each one is written.
//
// Each per-source ratio is shrunk toward the pooled all-source estimate of
// the same channel with e.smooth pseudo-observations (empirical-Bayes
// smoothing): â = (num_i + s·pooled) / (den_i + s). With s = 0 this is the
// paper's raw M-step, in which a parameter whose stratum carries no
// posterior mass keeps its previous value.
func (e *engine) mStep(p *model.Params) float64 {
	n, m := e.ds.N(), e.ds.M()

	// Total posterior mass, reduced block-wise in index order (the same
	// decomposition as the E-step) so the sum is Workers-independent.
	nbM := parallel.Blocks(m, emBlockSize)
	zPart := e.zPart[:nbM]
	if e.workers <= 1 {
		for b := 0; b < nbM; b++ {
			zPart[b] = e.sumPostBlock(b, m)
		}
	} else {
		_ = parallel.ForEach(nbM, e.workers, func(b int) error {
			zPart[b] = e.sumPostBlock(b, m)
			return nil
		})
	}
	sumZ := 0.0
	for b := 0; b < nbM; b++ {
		sumZ += zPart[b]
	}
	sumY := float64(m) - sumZ

	// Per-source numerators/denominators of Eqs. (10)-(13): every source
	// is independent, so source blocks shard freely; each slot is written
	// exactly once (see mStepBlock).
	nbN := parallel.Blocks(n, emBlockSize)
	if e.workers <= 1 {
		for b := 0; b < nbN; b++ {
			lo, hi := parallel.BlockRange(b, n, emBlockSize)
			e.mStepBlock(lo, hi, sumZ, sumY)
		}
	} else {
		_ = parallel.ForEach(nbN, e.workers, func(b int) error {
			lo, hi := parallel.BlockRange(b, n, emBlockSize)
			e.mStepBlock(lo, hi, sumZ, sumY)
			return nil
		})
	}

	// Pooled channel totals for shrinkage, accumulated serially in source
	// index order — a cheap O(n) reduction whose order fixes the result.
	var poolNum, poolDen [4]float64 // A, B, F, G
	for i := 0; i < n; i++ {
		for c := 0; c < 4; c++ {
			poolNum[c] += e.nums[i][c]
			poolDen[c] += e.dens[i][c]
		}
	}

	var pooled, shrink [4]float64
	for c := 0; c < 4; c++ {
		if poolDen[c] > 0 {
			pooled[c] = poolNum[c] / poolDen[c]
		} else {
			pooled[c] = 0.5
		}
		if c < 2 {
			shrink[c] = e.smooth
		} else {
			shrink[c] = e.smoothDep
		}
	}

	// The distance starts from the prior's move, as a comparison of whole
	// parameter sets would; a ">"-max over the rest is order-independent.
	z := model.ClampProb(sumZ / float64(m))
	dist := math.Abs(z - p.Z)
	p.Z = z
	nums, dens, src := e.nums, e.dens, p.Sources
	switch e.variant {
	case VariantExt:
		for i := range src {
			s, num, den := &src[i], &nums[i], &dens[i]
			dist = move(&s.A, shrunk(s.A, num[0], den[0], shrink[0], pooled[0]), dist)
			dist = move(&s.B, shrunk(s.B, num[1], den[1], shrink[1], pooled[1]), dist)
			dist = move(&s.F, shrunk(s.F, num[2], den[2], shrink[2], pooled[2]), dist)
			dist = move(&s.G, shrunk(s.G, num[3], den[3], shrink[3], pooled[3]), dist)
		}
	case VariantIndependent:
		for i := range src {
			s, num, den := &src[i], &nums[i], &dens[i]
			dist = move(&s.A, shrunk(s.A, num[0], den[0], shrink[0], pooled[0]), dist)
			dist = move(&s.B, shrunk(s.B, num[1], den[1], shrink[1], pooled[1]), dist)
			// One channel: keep the dependent parameters mirrored so the
			// estimated θ remains interpretable downstream.
			dist = move(&s.F, s.A, dist)
			dist = move(&s.G, s.B, dist)
		}
	default: // VariantSocial: the dependent channel is never estimated
		for i := range src {
			s, num, den := &src[i], &nums[i], &dens[i]
			dist = move(&s.A, shrunk(s.A, num[0], den[0], shrink[0], pooled[0]), dist)
			dist = move(&s.B, shrunk(s.B, num[1], den[1], shrink[1], pooled[1]), dist)
		}
	}
	return dist
}

// shrunk returns the shrunk ratio (num + shrink·pooled)/(den + shrink), or
// old for an unsmoothed empty stratum, which keeps its previous value.
func shrunk(old, num, den, shrink, pooled float64) float64 {
	if den += shrink; den <= 1e-12 {
		return old
	}
	return model.ClampProb((num + shrink*pooled) / den)
}

// move overwrites *dst with v and returns max(dist, |v − old|), old being
// the value it replaced.
func move(dst *float64, v, dist float64) float64 {
	d := math.Abs(v - *dst)
	*dst = v
	if d > dist {
		return d
	}
	return dist
}

// sumPostBlock sums the posterior mass of assertion block b.
func (e *engine) sumPostBlock(b, m int) float64 {
	lo, hi := parallel.BlockRange(b, m, emBlockSize)
	z := 0.0
	for j := lo; j < hi; j++ {
		z += e.post[j]
	}
	return z
}

// logSumExp returns log(exp(a)+exp(b)) computed stably. It delegates to
// the shared log-space helpers next to the clamp in internal/model.
func logSumExp(a, b float64) float64 {
	return model.LogSumExp(a, b)
}

// posteriorLSE returns the posterior exp(w1)/(exp(w1)+exp(w0)) and
// logSumExp(w1, w0) from a single exponential, bit for bit what the stable
// sigmoid and logSumExp compute apart. When w1 ≥ w0, logSumExp
// exponentiates w0 − w1, which IEEE subtraction makes exactly −(w1 − w0)
// (a zero difference differs only in sign, and exp(±0) = 1); otherwise it
// exponentiates w1 − w0 itself. A NaN difference (NaN inputs, or two equal
// infinities) takes both unfused paths, keeping logSumExp's −Inf guard.
func posteriorLSE(w1, w0 float64) (post, lse float64) {
	d := w1 - w0
	if d >= 0 {
		e := math.Exp(-d)
		return 1 / (1 + e), w1 + math.Log1p(e)
	}
	ed := math.Exp(d)
	post = ed / (1 + ed)
	if d < 0 {
		return post, w0 + math.Log1p(ed)
	}
	return post, logSumExp(w1, w0)
}
