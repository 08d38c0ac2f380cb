package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"depsense/internal/claims"
	"depsense/internal/runctx"
)

// TestFitCostIsSparse keeps the E-step and M-step sparse without timing
// either: five EM iterations of every variant over a 100,000 × 100,000
// grid (10^10 cells) holding 10,000 marks must finish before a generous
// deadline. The kernels visit O(n + m + nnz) entries per step, so each fit
// takes a fraction of a second even under -race; one O(n·m) scan in either
// step visits 10^10 cells, and the deadline, which RunCtx checks once per
// iteration, stops the fit after the first such scan.
func TestFitCostIsSparse(t *testing.T) {
	const n, m, marks = 100_000, 100_000, 10_000
	const deadline = 10 * time.Second
	rng := rand.New(rand.NewSource(29))
	b := claims.NewBuilder(n, m)
	taken := make(map[[2]int]bool, marks)
	for len(taken) < marks {
		cell := [2]int{rng.Intn(n), rng.Intn(m)}
		if taken[cell] {
			continue
		}
		taken[cell] = true
		if len(taken)%5 == 0 {
			b.MarkSilentDependent(cell[0], cell[1])
		} else {
			b.AddClaim(cell[0], cell[1], rng.Float64() < 0.35)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		res, err := RunCtx(ctx, ds, v, Options{MaxIters: 5, Tol: 1e-300, DepMode: DepModeJoint})
		cancel()
		if err != nil {
			t.Fatalf("%v: 5 iterations on a %d×%d grid with %d marks missed the %v deadline (%v): a step scans the grid, not its nonzeros",
				v, n, m, marks, deadline, err)
		}
		if res.Stopped != runctx.StopIterationCap {
			t.Fatalf("%v: stopped %q, want the 5-iteration cap", v, res.Stopped)
		}
	}
}
