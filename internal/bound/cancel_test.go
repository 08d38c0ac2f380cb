package bound

import (
	"context"
	"errors"
	"testing"

	"depsense/internal/randutil"
	"depsense/internal/runctx"
)

// wideColumn builds an n-source column large enough for exact enumeration
// to span several cancellation blocks (2^n / ExactBlockPatterns blocks).
func wideColumn(n int) Column {
	p1 := make([]float64, n)
	p0 := make([]float64, n)
	for i := range p1 {
		p1[i] = 0.7
		p0[i] = 0.3
	}
	return Column{P1: p1, P0: p0, Z: 0.5}
}

func TestExactContextCancelAtFirstBlock(t *testing.T) {
	const n = 18 // 2^18 patterns = 8 blocks of ExactBlockPatterns
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var final runctx.Iteration
	ctx = runctx.WithHook(ctx, func(it runctx.Iteration) {
		final = it
		if it.N >= 1 {
			cancel()
		}
	})
	_, err := Exact(ctx, wideColumn(n), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if final.Stopped != runctx.StopCancelled || !final.Done {
		t.Fatalf("final hook iteration = %+v", final)
	}
	// Cancellation fired at the first block checkpoint, so enumeration must
	// stop within one further block of patterns.
	if final.Samples >= 3*ExactBlockPatterns {
		t.Fatalf("enumerated %d patterns after a first-block cancel", final.Samples)
	}
	if final.Samples < ExactBlockPatterns {
		t.Fatalf("cancelled before the first full block: %d patterns", final.Samples)
	}
}

func TestApproxContextCancelAtFirstCheckpoint(t *testing.T) {
	col := wideColumn(6)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = runctx.WithHook(ctx, func(it runctx.Iteration) {
		if it.N >= 1 && !it.Done {
			cancel()
		}
	})
	res, err := ApproxContext(ctx, col, 100000, randutil.New(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// Partial Monte Carlo averages over the sweeps completed so far.
	if res.Sweeps < approxCheckEvery || res.Sweeps > approxCheckEvery+1 {
		t.Fatalf("Sweeps = %d, want about one checkpoint interval", res.Sweeps)
	}
	if res.Err <= 0 || res.Err >= 1 {
		t.Fatalf("partial bound = %v", res.Err)
	}
}

func TestApproxContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ApproxContext(ctx, wideColumn(5), 0, randutil.New(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res.Sweeps != 0 {
		t.Fatalf("pre-cancelled run drew %d sweeps", res.Sweeps)
	}
}

func TestForDatasetContextPreCancelled(t *testing.T) {
	// A pre-cancelled context must return before any column is computed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds, params := smallWorldParams(t)
	_, err := ForDatasetContext(ctx, ds, params, DatasetOptions{Method: MethodExact}, randutil.New(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}
