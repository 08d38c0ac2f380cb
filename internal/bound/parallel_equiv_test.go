package bound

import (
	"context"
	"errors"
	"testing"

	"depsense/internal/randutil"
	"depsense/internal/runctx"
)

// heterogeneousColumn builds a column whose per-source probabilities all
// differ, so any block mis-ordering in the parallel reduction would change
// the floating-point sums and fail the exact-equality assertions below.
func heterogeneousColumn(n int) Column {
	rng := randutil.New(int64(n))
	c := Column{P1: make([]float64, n), P0: make([]float64, n), Z: 0.37}
	for i := 0; i < n; i++ {
		c.P1[i] = randutil.Uniform(rng, 0.5, 0.95)
		c.P0[i] = randutil.Uniform(rng, 0.05, 0.5)
	}
	return c
}

// TestExactWorkersEquivalence: the blocked enumeration must return the same
// Result bit for bit at any worker count, above and below the one-block
// threshold.
func TestExactWorkersEquivalence(t *testing.T) {
	for _, n := range []int{8, 15, 18} {
		col := heterogeneousColumn(n)
		serial, err := Exact(context.Background(), col, 1)
		if err != nil {
			t.Fatalf("n=%d serial: %v", n, err)
		}
		for _, workers := range []int{2, 8} {
			par, err := Exact(context.Background(), col, workers)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if par != serial {
				t.Fatalf("n=%d workers=%d: %+v != serial %+v", n, workers, par, serial)
			}
		}
	}
}

// TestExactWorkersCancelValidPartial: cancelling the parallel enumeration
// must return the sums over a contiguous prefix of completed blocks — a
// state a serial run could also have reported — with the final hook marking
// the stop.
func TestExactWorkersCancelValidPartial(t *testing.T) {
	const n = 18 // 8 blocks
	col := heterogeneousColumn(n)
	full, err := Exact(context.Background(), col, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var final runctx.Iteration
	ctx = runctx.WithHook(ctx, func(it runctx.Iteration) {
		if it.Done {
			final = it
		} else if it.N >= 1 {
			cancel()
		}
	})
	res, err := Exact(ctx, col, 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if !final.Done || final.Stopped != runctx.StopCancelled {
		t.Fatalf("final hook iteration = %+v", final)
	}
	if final.Samples != final.N*ExactBlockPatterns {
		t.Fatalf("final Samples = %d inconsistent with %d completed blocks", final.Samples, final.N)
	}
	// The partial is a prefix sum: non-negative, no larger than the full
	// bound, and internally consistent.
	if res.Err < 0 || res.Err > full.Err {
		t.Fatalf("partial Err = %v outside [0, %v]", res.Err, full.Err)
	}
	if res.Err != res.FalsePos+res.FalseNeg {
		t.Fatalf("partial decomposition inconsistent: %v != %v + %v", res.Err, res.FalsePos, res.FalseNeg)
	}
}
