package baselines

import (
	"context"
	"math"

	"depsense/internal/claims"
	"depsense/internal/factfind"
)

// trustFloor keeps sources with at least one claim from collapsing to
// exactly zero trust: the Investment family has winner-take-all dynamics,
// and a hard zero would leave claimed assertions tied with unclaimed ones
// in the final ranking.
const trustFloor = 1e-6

// Investment is Pasternack & Roth's Investment fact-finder (COLING 2010,
// the paper's reference [15] alongside Sums and Average.Log): each source
// "invests" its trust uniformly across its claims, an assertion's belief
// grows non-linearly (power g) in the invested amount, and returns flow
// back to sources proportionally to their share of each assertion's
// investment:
//
//	B(c)  = (Σ_{s claims c} T(s)/|claims(s)|)^g
//	T(s)  = Σ_{c ∈ claims(s)} B(c) · (T_prev(s)/|claims(s)|) / I(c)
//
// where I(c) is the total investment in c. Like the other heuristics it is
// dependency-blind, which is exactly how the paper positions this family.
type Investment struct {
	// Iters is the number of rounds (default 20).
	Iters int
	// G is the belief growth exponent (default 1.2, the original's value).
	G float64
}

var _ factfind.FactFinder = (*Investment)(nil)

// Name implements factfind.FactFinder.
func (v *Investment) Name() string { return "Investment" }

// RunContext implements factfind.FactFinder. Cancellation is checked before
// every investment round; on cancellation the beliefs of the completed
// rounds are returned with the context's error.
func (v *Investment) RunContext(ctx context.Context, ds *claims.Dataset) (*factfind.Result, error) {
	iters := v.Iters
	if iters <= 0 {
		iters = 20
	}
	g := v.G
	if g <= 0 {
		g = 1.2
	}
	n, m := ds.N(), ds.M()
	trust := make([]float64, n)
	belief := make([]float64, m)
	invested := make([]float64, m)
	counts := make([]float64, n)
	for i := 0; i < n; i++ {
		counts[i] = float64(len(ds.ClaimsD0(i)) + len(ds.ClaimsD1(i)))
		trust[i] = 1
	}

	forEachClaim := func(i int, fn func(j int32)) {
		for _, j := range ds.ClaimsD0(i) {
			fn(j)
		}
		for _, j := range ds.ClaimsD1(i) {
			fn(j)
		}
	}

	completed, loopErr := heuristicLoop(ctx, v.Name(), iters, func(int) {
		// Invest: every source splits its trust across its claims.
		for j := range invested {
			invested[j] = 0
		}
		for i := 0; i < n; i++ {
			if counts[i] == 0 {
				continue
			}
			share := trust[i] / counts[i]
			forEachClaim(i, func(j int32) { invested[j] += share })
		}
		// Grow beliefs, normalized by the maximum to keep the exponent
		// numerically tame.
		maxB := 0.0
		for j := range belief {
			belief[j] = math.Pow(invested[j], g)
			if belief[j] > maxB {
				maxB = belief[j]
			}
		}
		if maxB > 0 {
			for j := range belief {
				belief[j] /= maxB
			}
		}
		// Collect returns.
		newTrust := make([]float64, n)
		maxT := 0.0
		for i := 0; i < n; i++ {
			if counts[i] == 0 {
				continue
			}
			share := trust[i] / counts[i]
			sum := 0.0
			forEachClaim(i, func(j int32) {
				if invested[j] > 0 {
					sum += belief[j] * share / invested[j]
				}
			})
			newTrust[i] = sum
			if sum > maxT {
				maxT = sum
			}
		}
		if maxT > 0 {
			for i := range newTrust {
				newTrust[i] /= maxT
			}
		}
		for i := range newTrust {
			if counts[i] > 0 && newTrust[i] < trustFloor {
				newTrust[i] = trustFloor
			}
		}
		trust = newTrust
	})
	iterations, converged, stopped := stampHeuristic(completed, loopErr)
	return &factfind.Result{
		Posterior: belief, Iterations: iterations, Converged: converged,
		Stopped: stopped,
	}, loopErr
}

// PooledInvestment is the PooledInvestment variant of Investment: beliefs
// are linearly pooled before the non-linear growth, which the original work
// found more stable on sparse data.
type PooledInvestment struct {
	// Iters is the number of rounds (default 20).
	Iters int
	// G is the growth exponent (default 1.4, the original's value).
	G float64
}

var _ factfind.FactFinder = (*PooledInvestment)(nil)

// Name implements factfind.FactFinder.
func (v *PooledInvestment) Name() string { return "PooledInvestment" }

// RunContext implements factfind.FactFinder. Cancellation is checked before
// every investment round; on cancellation the beliefs of the completed
// rounds are returned with the context's error.
func (v *PooledInvestment) RunContext(ctx context.Context, ds *claims.Dataset) (*factfind.Result, error) {
	iters := v.Iters
	if iters <= 0 {
		iters = 20
	}
	g := v.G
	if g <= 0 {
		g = 1.4
	}
	n, m := ds.N(), ds.M()
	trust := make([]float64, n)
	belief := make([]float64, m)
	linear := make([]float64, m)
	counts := make([]float64, n)
	for i := 0; i < n; i++ {
		counts[i] = float64(len(ds.ClaimsD0(i)) + len(ds.ClaimsD1(i)))
		trust[i] = 1
	}
	forEachClaim := func(i int, fn func(j int32)) {
		for _, j := range ds.ClaimsD0(i) {
			fn(j)
		}
		for _, j := range ds.ClaimsD1(i) {
			fn(j)
		}
	}
	completed, loopErr := heuristicLoop(ctx, v.Name(), iters, func(int) {
		for j := range linear {
			linear[j] = 0
		}
		for i := 0; i < n; i++ {
			if counts[i] == 0 {
				continue
			}
			share := trust[i] / counts[i]
			forEachClaim(i, func(j int32) { linear[j] += share })
		}
		// Pooled growth: H(c) = linear(c) · (linear(c)^g / Σ linear^g),
		// normalized by max.
		total := 0.0
		for j := range linear {
			total += math.Pow(linear[j], g)
		}
		maxB := 0.0
		for j := range belief {
			if total > 0 {
				belief[j] = linear[j] * math.Pow(linear[j], g) / total
			} else {
				belief[j] = 0
			}
			if belief[j] > maxB {
				maxB = belief[j]
			}
		}
		if maxB > 0 {
			for j := range belief {
				belief[j] /= maxB
			}
		}
		newTrust := make([]float64, n)
		maxT := 0.0
		for i := 0; i < n; i++ {
			if counts[i] == 0 {
				continue
			}
			share := trust[i] / counts[i]
			sum := 0.0
			forEachClaim(i, func(j int32) {
				if linear[j] > 0 {
					sum += belief[j] * share / linear[j]
				}
			})
			newTrust[i] = sum
			if sum > maxT {
				maxT = sum
			}
		}
		if maxT > 0 {
			for i := range newTrust {
				newTrust[i] /= maxT
			}
		}
		for i := range newTrust {
			if counts[i] > 0 && newTrust[i] < trustFloor {
				newTrust[i] = trustFloor
			}
		}
		trust = newTrust
	})
	iterations, converged, stopped := stampHeuristic(completed, loopErr)
	return &factfind.Result{
		Posterior: belief, Iterations: iterations, Converged: converged,
		Stopped: stopped,
	}, loopErr
}
