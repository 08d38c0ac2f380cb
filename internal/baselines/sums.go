package baselines

import (
	"context"

	"depsense/internal/claims"
	"depsense/internal/factfind"
)

// Sums is the Hubs-and-Authorities style iterative fact-finder of
// Pasternack & Roth (COLING 2010), reference [15]: assertion belief is the
// sum of its claimants' trust, source trust is the sum of its claims'
// beliefs, with max-normalization after every round to keep values bounded.
type Sums struct {
	// Iters is the number of belief/trust rounds (default 20).
	Iters int
}

var _ factfind.FactFinder = (*Sums)(nil)

// Name implements factfind.FactFinder.
func (s *Sums) Name() string { return "Sums" }

// RunContext implements factfind.FactFinder. Cancellation is checked before
// every belief/trust round; on cancellation the beliefs of the completed
// rounds are returned with the context's error.
func (s *Sums) RunContext(ctx context.Context, ds *claims.Dataset) (*factfind.Result, error) {
	iters := s.Iters
	if iters <= 0 {
		iters = 20
	}
	n, m := ds.N(), ds.M()
	trust := make([]float64, n)
	belief := make([]float64, m)
	for i := range trust {
		trust[i] = 1
	}
	completed, loopErr := heuristicLoop(ctx, s.Name(), iters, func(int) {
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
			t := 0.0
			for _, j := range ds.ClaimsD0(i) {
				t += belief[j]
			}
			for _, j := range ds.ClaimsD1(i) {
				t += belief[j]
			}
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
