package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"depsense/internal/claims"
	"depsense/internal/factfind"
	"depsense/internal/model"
	"depsense/internal/runctx"
)

// depMode resolves DepModeAuto against the dataset's dependent-pair
// density.
func depMode(ds *claims.Dataset, opts Options) DepMode {
	if opts.DepMode != DepModeAuto {
		return opts.DepMode
	}
	if DependentPairsPerSource(ds) >= denseThreshold {
		return DepModeJoint
	}
	return DepModePlugin
}

// DependentPairsPerSource returns the average number of dependent pairs
// (dependent claims plus silent-dependent pairs) per source, the
// identifiability measure DepModeAuto switches on.
func DependentPairsPerSource(ds *claims.Dataset) float64 {
	if ds.N() == 0 {
		return 0
	}
	total := ds.NumDependentClaims() + ds.Summarize().SilentDependent
	return float64(total) / float64(ds.N())
}

// runPlugin is EM-Ext's sparse-regime strategy: fit the dependency-blind
// EM-Social model, estimate a single pooled dependent channel from its
// posteriors, and re-score every assertion with one dependency-aware
// E-step. See DepMode for why the joint fit is not used here.
func runPlugin(ctx context.Context, ds *claims.Dataset, opts Options) (*factfind.Result, error) {
	hook := runctx.HookFrom(ctx)
	start := time.Now() //lint:allow seedsource wall-clock timing for the observability hook Elapsed field, not part of results
	// The coarse fit and the re-score share one Scratch: the caller's, or
	// one allocated here for both.
	if opts.Scratch == nil {
		opts.Scratch = NewScratch()
	}
	coarse, err := RunCtx(ctx, ds, VariantSocial, opts)
	if err != nil {
		if runctx.Reason(err) != "" {
			// Cancelled during the coarse stage: the dependency-blind
			// partial fit is the deterministic partial state.
			return coarse, err
		}
		return nil, fmt.Errorf("core: plugin coarse stage: %w", err)
	}
	// The re-score below is a single E-step; one check before it bounds the
	// plug-in stage's cancellation latency.
	if err := runctx.Err(ctx); err != nil {
		coarse.Stopped = runctx.Reason(err)
		return coarse, err
	}
	params := coarse.Params.Clone()
	f, g := PooledDependentChannel(ds, coarse.Posterior)
	for i := range params.Sources {
		s := &params.Sources[i]
		s.F, s.G = f, g
	}
	// The re-score shares the run's Scratch (and worker setting):
	// under DepModePlugin the coarse fit and this single E-step are the
	// whole run, so a run allocates its kernel buffers once and a
	// warm-refit caller sees zero kernel reallocations.
	post, ll, err := PosteriorOpts(ds, params, opts)
	if err != nil {
		return nil, err
	}
	// The plug-in re-score is the run's last unit of work and counts
	// toward Iterations; fire it through the hook so observers (progress
	// printers, metrics exporters) see the same totals the Result reports,
	// under the variant the caller asked for.
	hook.Emit(runctx.Iteration{
		Algorithm: VariantExt.String(), N: coarse.Iterations + 1,
		LogLikelihood: ll, HasLL: true, Elapsed: time.Since(start),
		Done: true, Stopped: coarse.Stopped,
	})
	return &factfind.Result{
		Posterior:     post,
		Params:        params,
		Iterations:    coarse.Iterations + 1,
		Converged:     coarse.Converged,
		LogLikelihood: ll,
		Stopped:       coarse.Stopped,
	}, nil
}

// Plug-in channel estimation constants.
const (
	// pluginConfidenceExp is the exponent κ applied to |2Z-1| when
	// weighting assertions in the pooled channel estimate: near-0.5
	// posteriors are noise labels and attenuate the estimate toward the
	// base rate, so confident assertions dominate.
	pluginConfidenceExp = 4
	// pluginShrink is the pseudo-pair count pulling the pooled channel
	// toward the overall dependent claim rate, so datasets with little
	// dependent structure get a near-neutral (and therefore harmless)
	// correction.
	pluginShrink = 200
	// pluginChannelFloor keeps the pooled channel away from {0, 1}: a
	// pooled repeat rate estimated at 0.98+ is almost always coordinated
	// (bot-like) behaviour outside the model's independence assumptions,
	// and an unclamped value would make every silent-dependent pair
	// multiply the posterior by (1-f)/(1-g) ≈ 10^4 — one compromised
	// channel estimate would then reorder the entire ranking.
	pluginChannelFloor = 0.02
)

// PooledDependentChannel estimates one dataset-wide dependent channel
// (f, g) from per-assertion truth posteriors: the posterior-mass-weighted
// rates of claiming among dependent pairs,
//
//	f = Σ_j w_j·Z_j·dep_claims(j) / Σ_j w_j·Z_j·dep_pairs(j)
//
// and symmetrically for g with 1-Z_j — the M-step of Eqs. (11) and (13)
// with all sources pooled. Confidence weights w_j = |2Z_j-1|^κ counter the
// attenuation that near-0.5 posteriors cause, and both rates are shrunk
// toward the overall dependent claim rate by a pseudo-pair count so thin
// dependent structure yields a near-neutral channel.
func PooledDependentChannel(ds *claims.Dataset, posterior []float64) (f, g float64) {
	var fNum, fDen, gNum, gDen float64
	for j := 0; j < ds.M(); j++ {
		z := posterior[j]
		w := math.Pow(math.Abs(2*z-1), pluginConfidenceExp)
		dep := ds.DependentClaimCount(j)
		pairs := float64(dep + len(ds.SilentDependents(j)))
		fNum += float64(dep) * z * w
		fDen += pairs * z * w
		gNum += float64(dep) * (1 - z) * w
		gDen += pairs * (1 - z) * w
	}
	if fDen+gDen <= 0 {
		return 0.5, 0.5
	}
	base := (fNum + gNum) / (fDen + gDen)
	f = clampChannel((fNum + pluginShrink*base) / (fDen + pluginShrink))
	g = clampChannel((gNum + pluginShrink*base) / (gDen + pluginShrink))
	return f, g
}

func clampChannel(v float64) float64 {
	v = model.ClampProb(v)
	if v < pluginChannelFloor {
		return pluginChannelFloor
	}
	if v > 1-pluginChannelFloor {
		return 1 - pluginChannelFloor
	}
	return v
}

// PosteriorOpts computes P(C_j = 1 | SC; θ) for every assertion under the
// full dependency-aware model (Eq. 9) together with the data log-likelihood
// (Eq. 7), without fitting anything — the scoring half of the estimator,
// usable with known or externally estimated parameters. Of the options only
// the kernel knobs are honored: Options.Scratch supplies reusable buffers
// (the returned posterior slice is always a fresh copy, never an alias of
// the scratch) and Options.Workers shards the E-step.
func PosteriorOpts(ds *claims.Dataset, p *model.Params, opts Options) ([]float64, float64, error) {
	if ds.N() == 0 || ds.M() == 0 {
		return nil, 0, ErrEmptyDataset
	}
	if err := p.Validate(); err != nil {
		return nil, 0, fmt.Errorf("core: posterior params: %w", err)
	}
	if p.NumSources() != ds.N() {
		return nil, 0, fmt.Errorf("%w: params have %d sources, dataset %d",
			ErrParamsShape, p.NumSources(), ds.N())
	}
	eng := newEngine(ds, VariantExt, opts)
	work := p.Clone()
	work.Clamp()
	eng.refreshLogs(work)
	ll := eng.eStep(work)
	return append([]float64(nil), eng.post...), ll, nil
}
