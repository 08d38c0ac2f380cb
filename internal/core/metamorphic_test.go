package core

import (
	"context"
	"math"
	"testing"

	"depsense/internal/randutil"
	"depsense/internal/synthetic"
)

// TestMetamorphicZeroDependenciesMatchesIndependent: with an all-zero
// dependency indicator matrix the dependent channel (f, g) receives no
// observations, so EM-Ext's likelihood degenerates to the independent
// model's — the posteriors must coincide with VariantIndependent to
// floating-point noise, in every DepMode and at every worker count. Both
// runs start from the same explicit initialization and a fixed iteration
// budget so the trajectories are comparable step by step.
func TestMetamorphicZeroDependenciesMatchesIndependent(t *testing.T) {
	cfg := synthetic.DefaultConfig()
	cfg.Sources = 12
	cfg.Assertions = 60
	cfg.Trees = synthetic.FixedInt(12) // every source a root: D is all-zero
	w, err := synthetic.Generate(cfg, randutil.New(61))
	if err != nil {
		t.Fatal(err)
	}
	if w.Dataset.NumDependentClaims() != 0 {
		t.Fatal("all-roots world has dependent claims")
	}
	for j := 0; j < w.Dataset.M(); j++ {
		for _, c := range w.Dataset.DependencyColumn(j) {
			if c {
				t.Fatal("dependency column not all-zero")
			}
		}
	}

	base := Options{Init: w.TrueParams, MaxIters: 40, Tol: 1e-300}
	ref, err := RunCtx(context.Background(), w.Dataset, VariantIndependent, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []DepMode{DepModeAuto, DepModeJoint} {
		for _, workers := range []int{1, 8} {
			opts := base
			opts.DepMode = mode
			opts.Workers = workers
			res, err := RunCtx(context.Background(), w.Dataset, VariantExt, opts)
			if err != nil {
				t.Fatalf("mode=%v workers=%d: %v", mode, workers, err)
			}
			for j := range ref.Posterior {
				if d := math.Abs(res.Posterior[j] - ref.Posterior[j]); d > 1e-12 {
					t.Fatalf("mode=%v workers=%d posterior[%d] differs by %v (ext=%v ind=%v)",
						mode, workers, j, d, res.Posterior[j], ref.Posterior[j])
				}
			}
		}
	}
}
