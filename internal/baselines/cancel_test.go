package baselines

import (
	"context"
	"errors"
	"testing"

	"depsense/internal/claims"
	"depsense/internal/runctx"
)

// cancelDataset builds a small deterministic source-claim matrix that every
// finder in the lineup accepts.
func cancelDataset(t *testing.T) *claims.Dataset {
	t.Helper()
	b := claims.NewBuilder(5, 8)
	for i := 0; i < 5; i++ {
		for j := 0; j < 8; j++ {
			if (i+j)%2 == 0 {
				b.AddClaim(i, j, false)
			}
		}
	}
	b.AddClaim(0, 1, true)
	b.AddClaim(1, 0, true)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAllFindersPreCancelled(t *testing.T) {
	ds := cancelDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, f := range extended() {
		res, err := f.RunContext(ctx, ds)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v", f.Name(), err)
		}
		if res != nil && res.Stopped != runctx.StopCancelled {
			t.Fatalf("%s: Stopped = %q", f.Name(), res.Stopped)
		}
	}
}

func TestSumsCancelMidRun(t *testing.T) {
	ds := cancelDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = runctx.WithHook(ctx, func(it runctx.Iteration) {
		if it.N >= 2 && !it.Done {
			cancel()
		}
	})
	res, err := (&Sums{Iters: 20}).RunContext(ctx, ds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res.Stopped != runctx.StopCancelled || res.Converged {
		t.Fatalf("res = %+v", res)
	}
	if res.Iterations != 2 {
		t.Fatalf("Iterations = %d, want 2", res.Iterations)
	}
	// The partial beliefs equal a full run truncated to the same rounds.
	want, err := (&Sums{Iters: 2}).RunContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Posterior {
		if res.Posterior[j] != want.Posterior[j] {
			t.Fatalf("belief[%d]: cancelled-run %v != 2-round run %v", j, res.Posterior[j], want.Posterior[j])
		}
	}
}

func TestTruthFinderCancelMidRun(t *testing.T) {
	ds := cancelDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = runctx.WithHook(ctx, func(it runctx.Iteration) {
		if it.N >= 2 && !it.Done {
			cancel()
		}
	})
	res, err := (&TruthFinder{Tol: 1e-300}).RunContext(ctx, ds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res.Stopped != runctx.StopCancelled || res.Converged {
		t.Fatalf("res = %+v", res)
	}
	if res.Iterations != 2 {
		t.Fatalf("Iterations = %d, want 2", res.Iterations)
	}
	if len(res.Posterior) != ds.M() {
		t.Fatalf("partial posterior has %d entries, want %d", len(res.Posterior), ds.M())
	}
}

func TestHeuristicHookLabels(t *testing.T) {
	ds := cancelDataset(t)
	// The iterative heuristics (Voting is single-pass and fires no
	// per-round hooks).
	for _, f := range extended()[4:] {
		var labels []string
		ctx := runctx.WithHook(context.Background(), func(it runctx.Iteration) {
			labels = append(labels, it.Algorithm)
		})
		if _, err := f.RunContext(ctx, ds); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if len(labels) == 0 {
			t.Fatalf("%s: hook never fired", f.Name())
		}
		for _, l := range labels {
			if l != f.Name() {
				t.Fatalf("%s: hook labelled %q", f.Name(), l)
			}
		}
	}
}
