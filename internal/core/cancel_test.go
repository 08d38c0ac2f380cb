package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"depsense/internal/factfind"
	"depsense/internal/runctx"
)

// cancelAfter returns a context whose runctx hook cancels the run once the
// estimator reports iteration n, plus a pointer to the final (Done)
// Iteration the hook observed.
func cancelAfter(t *testing.T, n int) (context.Context, *runctx.Iteration) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	final := &runctx.Iteration{}
	ctx = runctx.WithHook(ctx, func(it runctx.Iteration) {
		if it.Done {
			*final = it
		} else if it.N >= n {
			cancel()
		}
	})
	return ctx, final
}

func TestRunCtxCancelMidRun(t *testing.T) {
	w := genWorld(t, 12, 40, 321)
	for _, variant := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
		run := func() (*factfind.Result, error) {
			ctx, final := cancelAfter(t, 3)
			res, err := RunCtx(ctx, w.Dataset, variant, Options{DepMode: DepModeJoint})
			if final.Stopped != runctx.StopCancelled {
				t.Fatalf("%v: final hook stopped = %q", variant, final.Stopped)
			}
			return res, err
		}
		res, err := run()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v", variant, err)
		}
		if res == nil {
			t.Fatalf("%v: no partial result", variant)
		}
		if res.Stopped != runctx.StopCancelled {
			t.Fatalf("%v: Stopped = %q", variant, res.Stopped)
		}
		// The cancel fired from the iteration-3 hook, so the run must stop
		// before completing iteration 4 — within one iteration of the
		// cancellation.
		if res.Iterations != 3 {
			t.Fatalf("%v: stopped after %d iterations, want 3", variant, res.Iterations)
		}
		if res.Converged {
			t.Fatalf("%v: cancelled run reported converged", variant)
		}
		// The partial state must be a deterministic function of where the
		// run stopped.
		again, err2 := run()
		if !errors.Is(err2, context.Canceled) {
			t.Fatalf("%v: rerun err = %v", variant, err2)
		}
		for j := range res.Posterior {
			if res.Posterior[j] != again.Posterior[j] {
				t.Fatalf("%v: partial posterior[%d] differs across identical cancelled runs", variant, j)
			}
		}
	}
}

func TestRunCtxDeadlineMidRun(t *testing.T) {
	w := genWorld(t, 12, 40, 321)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	// Slow each iteration down so the deadline reliably lands mid-run, and
	// make convergence unreachable so only the deadline can stop it.
	ctx = runctx.WithHook(ctx, func(runctx.Iteration) { time.Sleep(2 * time.Millisecond) })
	res, err := RunCtx(ctx, w.Dataset, VariantExt, Options{
		DepMode: DepModeJoint, Tol: 1e-300, MaxIters: 1_000_000,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if res == nil || res.Stopped != runctx.StopDeadline {
		t.Fatalf("res = %+v", res)
	}
	if res.Iterations <= 0 || res.Iterations >= 1_000_000 {
		t.Fatalf("Iterations = %d", res.Iterations)
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	w := genWorld(t, 8, 20, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(ctx, w.Dataset, VariantExt, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res != nil {
		t.Fatalf("pre-cancelled run produced a result: %+v", res)
	}
}

func TestRunCtxStoppedReasons(t *testing.T) {
	w := genWorld(t, 10, 30, 99)

	res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Stopped != runctx.StopConverged {
		t.Fatalf("converged run: Converged=%v Stopped=%q", res.Converged, res.Stopped)
	}

	res, err = RunCtx(context.Background(), w.Dataset, VariantExt, Options{MaxIters: 2, Tol: 1e-300, DepMode: DepModeJoint})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Stopped != runctx.StopIterationCap {
		t.Fatalf("capped run: Converged=%v Stopped=%q", res.Converged, res.Stopped)
	}
}

// TestIterationsMatchLastHook: a result reports the iteration count its last
// hook firing carries, for every variant and for the plug-in, converged or
// capped; at the cap that is MaxIters, plus the plug-in's re-score.
func TestIterationsMatchLastHook(t *testing.T) {
	w := genWorld(t, 10, 30, 99)
	const maxIters = 4
	for _, tc := range []struct {
		name    string
		variant Variant
		mode    DepMode
		capped  int // Iterations at the cap
	}{
		{"ext", VariantExt, DepModeJoint, maxIters},
		{"independent", VariantIndependent, DepModeJoint, maxIters},
		{"social", VariantSocial, DepModeJoint, maxIters},
		{"plugin", VariantExt, DepModePlugin, maxIters + 1},
	} {
		for _, capped := range []bool{false, true} {
			opts := Options{DepMode: tc.mode}
			if capped {
				opts.MaxIters, opts.Tol = maxIters, 1e-300
			}
			var last runctx.Iteration
			ctx := runctx.WithHook(context.Background(), func(it runctx.Iteration) { last = it })
			res, err := RunCtx(ctx, w.Dataset, tc.variant, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Converged == capped || !last.Done {
				t.Fatalf("%s capped=%v: Converged=%v, last hook %+v", tc.name, capped, res.Converged, last)
			}
			if res.Iterations != last.N {
				t.Errorf("%s capped=%v: Iterations %d, last hook N %d", tc.name, capped, res.Iterations, last.N)
			}
			if capped && res.Iterations != tc.capped {
				t.Errorf("%s: capped fit reports %d iterations, want %d", tc.name, res.Iterations, tc.capped)
			}
		}
	}
}

func TestRunCtxHookObservesLogLikelihood(t *testing.T) {
	w := genWorld(t, 10, 30, 42)
	var iters []runctx.Iteration
	ctx := runctx.WithHook(context.Background(), func(it runctx.Iteration) {
		iters = append(iters, it)
	})
	res, err := RunCtx(ctx, w.Dataset, VariantIndependent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 {
		t.Fatal("hook never fired")
	}
	last := iters[len(iters)-1]
	if !last.Done || last.Stopped != res.Stopped {
		t.Fatalf("last hook iteration = %+v, result stopped %q", last, res.Stopped)
	}
	if iters[0].N != 1 {
		t.Fatalf("first hook iteration N=%d", iters[0].N)
	}
	prevN := 0
	for _, it := range iters {
		if it.N < prevN {
			t.Fatalf("iteration numbers went backwards: %d after %d", it.N, prevN)
		}
		prevN = it.N
		if it.Algorithm != "EM" {
			t.Fatalf("algorithm = %q", it.Algorithm)
		}
	}
}
