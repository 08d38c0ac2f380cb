package baselines

import (
	"context"
	"math"

	"depsense/internal/claims"
	"depsense/internal/factfind"
)

// AverageLog is Pasternack & Roth's Average·Log variant of Sums: source
// trust is the average belief of the source's claims, scaled by
// log(1 + #claims) so prolific sources carry more weight without letting a
// single lucky claim dominate. (The original uses log(#claims), which
// zeroes out single-claim sources entirely; the +1 smoothing keeps the vast
// single-claim majority of Twitter-scale datasets in play while preserving
// the ordering the heuristic is built on.)
type AverageLog struct {
	// Iters is the number of belief/trust rounds (default 20).
	Iters int
}

var _ factfind.FactFinder = (*AverageLog)(nil)

// Name implements factfind.FactFinder.
func (a *AverageLog) Name() string { return "Average.Log" }

// RunContext implements factfind.FactFinder. Cancellation is checked before
// every belief/trust round; on cancellation the beliefs of the completed
// rounds are returned with the context's error.
func (a *AverageLog) RunContext(ctx context.Context, ds *claims.Dataset) (*factfind.Result, error) {
	iters := a.Iters
	if iters <= 0 {
		iters = 20
	}
	n, m := ds.N(), ds.M()
	trust := make([]float64, n)
	belief := make([]float64, m)
	claimCount := make([]int, n)
	for i := 0; i < n; i++ {
		claimCount[i] = len(ds.ClaimsD0(i)) + len(ds.ClaimsD1(i))
		trust[i] = 1
	}
	completed, loopErr := heuristicLoop(ctx, a.Name(), iters, func(int) {
		maxB := 0.0
		for j := 0; j < m; j++ {
			b := 0.0
			for _, i := range ds.Claimants(j) {
				b += trust[i]
			}
			belief[j] = b
			if b > maxB {
				maxB = b
			}
		}
		if maxB > 0 {
			for j := range belief {
				belief[j] /= maxB
			}
		}
		maxT := 0.0
		for i := 0; i < n; i++ {
			if claimCount[i] == 0 {
				trust[i] = 0
				continue
			}
			sum := 0.0
			for _, j := range ds.ClaimsD0(i) {
				sum += belief[j]
			}
			for _, j := range ds.ClaimsD1(i) {
				sum += belief[j]
			}
			t := math.Log1p(float64(claimCount[i])) * sum / float64(claimCount[i])
			trust[i] = t
			if t > maxT {
				maxT = t
			}
		}
		if maxT > 0 {
			for i := range trust {
				trust[i] /= maxT
			}
		}
	})
	iterations, converged, stopped := stampHeuristic(completed, loopErr)
	return &factfind.Result{
		Posterior: belief, Iterations: iterations, Converged: converged,
		Stopped: stopped,
	}, loopErr
}
