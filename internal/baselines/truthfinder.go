package baselines

import (
	"context"
	"math"
	"time"

	"depsense/internal/claims"
	"depsense/internal/factfind"
	"depsense/internal/runctx"
)

// TruthFinder is the iterative fact-finder of Yin, Han & Yu (TKDE 2008),
// reference [22]. Source trustworthiness and assertion confidence reinforce
// each other through the -ln(1-t) score transform and a dampened logistic:
//
//	τ(s)  = -ln(1 - t(s))            source trustworthiness score
//	σ(c)  = Σ_{s claims c} τ(s)      raw assertion confidence score
//	conf(c) = 1 / (1 + e^{-γ σ(c)})  dampened confidence
//	t(s)  = avg_{c ∈ claims(s)} conf(c)
//
// Iteration stops when the trust vector stabilizes (cosine similarity) or
// the cap is reached.
type TruthFinder struct {
	// InitialTrust seeds every source's trustworthiness (default 0.9, the
	// value used in the original paper).
	InitialTrust float64
	// Gamma is the dampening factor γ (default 0.3).
	Gamma float64
	// MaxIters caps the iterations (default 50).
	MaxIters int
	// Tol stops iteration when 1 - cos(t, t_prev) < Tol (default 1e-6).
	Tol float64
}

var _ factfind.FactFinder = (*TruthFinder)(nil)

// Name implements factfind.FactFinder.
func (t *TruthFinder) Name() string { return "Truth-Finder" }

// RunContext implements factfind.FactFinder. Cancellation is checked before
// every trust/confidence round; on cancellation the confidences of the
// completed rounds are returned with the context's error.
func (t *TruthFinder) RunContext(ctx context.Context, ds *claims.Dataset) (*factfind.Result, error) {
	initTrust := t.InitialTrust
	if initTrust <= 0 || initTrust >= 1 {
		initTrust = 0.9
	}
	gamma := t.Gamma
	if gamma <= 0 {
		gamma = 0.3
	}
	maxIters := t.MaxIters
	if maxIters <= 0 {
		maxIters = 50
	}
	tol := t.Tol
	if tol <= 0 {
		tol = 1e-6
	}

	n, m := ds.N(), ds.M()
	trust := make([]float64, n)
	prev := make([]float64, n)
	conf := make([]float64, m)
	for i := range trust {
		trust[i] = initTrust
	}

	hook := runctx.HookFrom(ctx)
	start := time.Now() //lint:allow seedsource wall-clock timing for the observability hook Elapsed field, not part of results
	iter := 0
	converged := false
	for iter = 1; iter <= maxIters; iter++ {
		if err := runctx.Err(ctx); err != nil {
			stopped := runctx.Reason(err)
			hook.Emit(runctx.Iteration{
				Algorithm: t.Name(), N: iter - 1, Elapsed: time.Since(start),
				Done: true, Stopped: stopped,
			})
			return &factfind.Result{
				Posterior: conf, Iterations: iter - 1, Stopped: stopped,
			}, err
		}
		copy(prev, trust)
		for j := 0; j < m; j++ {
			score := 0.0
			for _, i := range ds.Claimants(j) {
				// Clamp keeps -ln(1-t) finite when trust saturates.
				ti := trust[i]
				if ti > 1-1e-9 {
					ti = 1 - 1e-9
				}
				score += -math.Log(1 - ti)
			}
			conf[j] = 1 / (1 + math.Exp(-gamma*score))
		}
		for i := 0; i < n; i++ {
			cnt := len(ds.ClaimsD0(i)) + len(ds.ClaimsD1(i))
			if cnt == 0 {
				trust[i] = 0
				continue
			}
			sum := 0.0
			for _, j := range ds.ClaimsD0(i) {
				sum += conf[j]
			}
			for _, j := range ds.ClaimsD1(i) {
				sum += conf[j]
			}
			trust[i] = sum / float64(cnt)
		}
		if 1-cosine(trust, prev) < tol {
			converged = true
		}
		it := runctx.Iteration{
			Algorithm: t.Name(), N: iter, Elapsed: time.Since(start),
			Done: converged,
		}
		if converged {
			it.Stopped = runctx.StopConverged
		}
		hook.Emit(it)
		if converged {
			break
		}
	}
	return &factfind.Result{
		Posterior: conf, Iterations: iter, Converged: converged,
		Stopped: runctx.StopOf(converged),
	}, nil
}

// cosine returns the cosine similarity of two equal-length vectors, 1 for
// two zero vectors (both "no signal" states count as identical).
func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
