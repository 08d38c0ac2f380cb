package baselines

import (
	"context"

	"depsense/internal/claims"
	"depsense/internal/factfind"
	"depsense/internal/runctx"
)

// Voting ranks assertions by their raw support count: the number of sources
// that made the claim. It is the simplest baseline and the one most
// vulnerable to dependent claims, since every repeat inflates the count.
type Voting struct{}

var _ factfind.FactFinder = (*Voting)(nil)

// Name implements factfind.FactFinder.
func (v *Voting) Name() string { return "Voting" }

// RunContext implements factfind.FactFinder. Voting is a single pass, so
// the context is checked once up front; there is no partial state to
// return.
func (v *Voting) RunContext(ctx context.Context, ds *claims.Dataset) (*factfind.Result, error) {
	if err := runctx.Err(ctx); err != nil {
		return nil, err
	}
	scores := make([]float64, ds.M())
	maxScore := 0.0
	for j := 0; j < ds.M(); j++ {
		scores[j] = float64(len(ds.Claimants(j)))
		if scores[j] > maxScore {
			maxScore = scores[j]
		}
	}
	if maxScore > 0 {
		for j := range scores {
			scores[j] /= maxScore
		}
	}
	return &factfind.Result{
		Posterior: scores, Iterations: 1, Converged: true,
		Stopped: runctx.StopConverged,
	}, nil
}
