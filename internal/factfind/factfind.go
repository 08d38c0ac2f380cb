// Package factfind defines the common vocabulary shared by every
// fact-finding algorithm in this repository: the FactFinder interface, the
// Result type carrying per-assertion credibility scores, and decision /
// ranking helpers used by the evaluation harness.
package factfind

import (
	"cmp"
	"context"
	"slices"

	"depsense/internal/claims"
	"depsense/internal/model"
)

// Result is the output of a fact-finder run.
//
// Posterior[j] is the algorithm's credibility for assertion j. For the EM
// estimators it is the actual posterior P(C_j = 1 | SC; θ̂); for the
// heuristic baselines (Voting, Sums, Average.Log, TruthFinder) it is the
// algorithm's score normalized into [0, 1], meaningful for ranking but not
// calibrated as a probability.
type Result struct {
	Posterior []float64
	// Params holds the estimated θ for model-based estimators, nil for
	// heuristics.
	Params *model.Params
	// Iterations is the number of iterations the algorithm ran.
	Iterations int
	// Converged reports whether the iteration stopped by its convergence
	// criterion rather than the iteration cap.
	Converged bool
	// LogLikelihood is the final data log-likelihood for EM estimators
	// (Eq. 7); zero for heuristics.
	LogLikelihood float64
	// Stopped records why the run ended: one of the runctx.Stop* reasons
	// ("converged", "iteration-cap", "cancelled", "deadline"). It refines
	// Converged — tests and serving layers can assert not just whether a
	// run finished but why it stopped.
	Stopped string
}

// FactFinder scores the assertions of a dataset.
//
// RunContext honors the context's cancellation and deadline at iteration
// granularity and fires any runctx hook the context carries. On
// cancellation it returns the context's error together with the run's
// deterministic partial result (Stopped set to "cancelled" or "deadline"),
// so callers can report completed iterations instead of losing the run.
// A batch caller passes context.Background().
type FactFinder interface {
	// Name returns the algorithm's display name as used in the paper's
	// figures (e.g. "EM-Ext", "Voting").
	Name() string
	// RunContext scores every assertion, honoring ctx for cancellation,
	// deadlines, and iteration hooks.
	RunContext(ctx context.Context, ds *claims.Dataset) (*Result, error)
}

// DefaultThreshold is the posterior decision threshold used throughout the
// simulations: an assertion is declared true iff its posterior exceeds it.
const DefaultThreshold = 0.5

// Decisions thresholds the posteriors into true/false verdicts.
func (r *Result) Decisions(threshold float64) []bool {
	out := make([]bool, len(r.Posterior))
	for j, p := range r.Posterior {
		out[j] = p > threshold
	}
	return out
}

// Ranking returns assertion ids sorted by decreasing credibility, ties
// broken by ascending id for determinism. This is the ordering behind the
// paper's top-100 empirical evaluation.
func (r *Result) Ranking() []int {
	ids := make([]int, len(r.Posterior))
	for j := range ids {
		ids[j] = j
	}
	slices.SortFunc(ids, r.compare)
	return ids
}

// compare orders assertions as Ranking does: higher posterior first, then
// lower id. On finite posteriors it is a total order, so an unstable sort
// or a selection yields the one order a stable sort would.
func (r *Result) compare(a, b int) int {
	pa, pb := r.Posterior[a], r.Posterior[b]
	switch {
	case pa > pb:
		return -1
	case pa < pb:
		return 1
	}
	return cmp.Compare(a, b)
}

// TopK returns the K highest-credibility assertion ids (fewer if the
// dataset is smaller): Ranking()[:K], found without sorting every id.
func (r *Result) TopK(k int) []int {
	if k >= len(r.Posterior) {
		return r.Ranking()
	}
	if k <= 0 {
		return []int{}
	}
	// A heap of the best k ids seen so far, the lowest-ranked at the root.
	top := make([]int, k)
	for j := range top {
		top[j] = j
	}
	for i := k/2 - 1; i >= 0; i-- {
		r.siftDown(top, i)
	}
	for j := k; j < len(r.Posterior); j++ {
		if r.compare(j, top[0]) < 0 {
			top[0] = j
			r.siftDown(top, 0)
		}
	}
	slices.SortFunc(top, r.compare)
	return top
}

// siftDown restores the heap property below h[i]: every id ranks no
// higher than its children.
func (r *Result) siftDown(h []int, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && r.compare(h[c+1], h[c]) > 0 {
			c++
		}
		if r.compare(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
