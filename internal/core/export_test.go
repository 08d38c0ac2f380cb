package core

import (
	"context"

	"depsense/internal/claims"
	"depsense/internal/factfind"
	"depsense/internal/model"
	"depsense/internal/runctx"
)

// PlainColdFit runs variant's cold fit as the plain map from the same vote
// start RunCtx uses, with no extrapolation: the fixed point SQUAREM
// answers to. It ignores DepMode.
func PlainColdFit(ds *claims.Dataset, variant Variant, opts Options) *factfind.Result {
	opts = opts.normalized()
	eng := newEngine(ds, variant, opts)
	params := model.NewParams(ds.N(), 0.5)
	copy(eng.post, votePosteriors(ds))
	eng.mStep(params)
	f := &fit{ctx: context.Background(), eng: eng, params: params, opts: opts}
	for stop := false; !stop; stop, _ = f.step() {
	}
	eng.refreshLogs(params)
	ll := eng.eStep(params)
	return &factfind.Result{
		Posterior: append([]float64(nil), eng.post...), Params: params,
		Iterations: f.iter, Converged: f.converged, LogLikelihood: ll,
		Stopped: runctx.StopOf(f.converged),
	}
}
