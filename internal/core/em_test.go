package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"depsense/internal/claims"
	"depsense/internal/depgraph"
	"depsense/internal/model"
	"depsense/internal/randutil"
	"depsense/internal/stats"
	"depsense/internal/synthetic"
	"depsense/internal/twittersim"
)

func TestVariantString(t *testing.T) {
	cases := map[Variant]string{
		VariantExt:         "EM-Ext",
		VariantIndependent: "EM",
		VariantSocial:      "EM-Social",
		Variant(42):        "Variant(42)",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(v), got, want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	empty, err := claims.NewBuilder(0, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCtx(context.Background(), empty, VariantExt, Options{}); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("want ErrEmptyDataset, got %v", err)
	}

	b := claims.NewBuilder(2, 2)
	b.AddClaim(0, 0, false)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	badInit := model.NewParams(3, 0.5)
	if _, err := RunCtx(context.Background(), ds, VariantExt, Options{Init: badInit}); !errors.Is(err, ErrParamsShape) {
		t.Fatalf("want ErrParamsShape, got %v", err)
	}
	invalid := model.NewParams(2, 0.5)
	invalid.Sources[0].A = 2
	if _, err := RunCtx(context.Background(), ds, VariantExt, Options{Init: invalid}); err == nil {
		t.Fatal("invalid init accepted")
	}
}

func TestPosteriorsAreProbabilities(t *testing.T) {
	w := genWorld(t, 12, 40, 321)
	for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
		res, err := RunCtx(context.Background(), w.Dataset, v, Options{})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(res.Posterior) != w.Dataset.M() {
			t.Fatalf("%v: posterior length %d", v, len(res.Posterior))
		}
		for j, p := range res.Posterior {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("%v: posterior[%d] = %v", v, j, p)
			}
		}
		if err := res.Params.Validate(); err != nil {
			t.Fatalf("%v: estimated params invalid: %v", v, err)
		}
	}
}

// TestRepeatedRunsIdentical: EM reads no randomness, so two runs on the
// same dataset with the same options agree bit for bit.
func TestRepeatedRunsIdentical(t *testing.T) {
	w := genWorld(t, 10, 30, 99)
	a, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Posterior {
		if a.Posterior[j] != b.Posterior[j] {
			t.Fatal("repeated run, different posteriors")
		}
	}
	if a.LogLikelihood != b.LogLikelihood {
		t.Fatal("repeated run, different likelihood")
	}
}

// TestSeedHasNoEffect pins the deprecated Options.Seed as a no-op: EM
// starts from vote initialization, so every variant, dependent-channel
// mode and worker count gives bit-identical results at any seed, on a
// dense synthetic dataset (where DepModeAuto picks the joint fit) and a
// sparse twittersim-derived one (where it picks the plug-in).
func TestSeedHasNoEffect(t *testing.T) {
	tw, err := twittersim.Generate(twittersim.Small("Ukraine", 60), randutil.New(7))
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := depgraph.BuildDataset(tw.Graph, tw.Events(), len(tw.Kinds))
	if err != nil {
		t.Fatal(err)
	}
	datasets := []struct {
		name string
		ds   *claims.Dataset
		auto DepMode
	}{
		{"dense", genWorld(t, 25, 80, 41).Dataset, DepModeJoint},
		{"sparse", sparse, DepModePlugin},
	}
	for _, d := range datasets {
		if got := depMode(d.ds, Options{}); got != d.auto {
			t.Fatalf("%s: DepModeAuto resolves to %d, want %d", d.name, got, d.auto)
		}
		for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
			for _, mode := range []DepMode{DepModeAuto, DepModeJoint, DepModePlugin} {
				for _, workers := range []int{1, 3} {
					t.Run(fmt.Sprintf("%s/%v/mode%d/w%d", d.name, v, mode, workers), func(t *testing.T) {
						a, err := RunCtx(context.Background(), d.ds, v, Options{Seed: 1, DepMode: mode, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						b, err := RunCtx(context.Background(), d.ds, v, Options{Seed: 987654321, DepMode: mode, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						requireBitIdentical(t, a, b)
					})
				}
			}
		}
	}
}

// TestNearPerfectSources: with extremely reliable independent sources the
// posteriors must essentially equal ground truth.
func TestNearPerfectSources(t *testing.T) {
	cfg := synthetic.Config{
		Sources:    8,
		Assertions: 40,
		Trees:      synthetic.FixedInt(8), // all roots: no dependency at all
		TrueRatio:  synthetic.Fixed(0.5),
		POn:        synthetic.Fixed(0.95),
		PDep:       synthetic.Fixed(0.5),
		PIndepT:    synthetic.Fixed(0.97),
		PDepT:      synthetic.Fixed(0.5),
	}
	w, err := synthetic.Generate(cfg, randutil.New(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := stats.Classify(res.Decisions(0.5), w.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if c.Accuracy < 0.95 {
		t.Fatalf("near-perfect sources gave accuracy %v", c.Accuracy)
	}
}

// TestEMExtRecoversParameters: on a large dataset the estimated channel
// parameters should approach the generating ones.
func TestEMExtRecoversParameters(t *testing.T) {
	cfg := synthetic.EstimatorConfig()
	cfg.Sources = 30
	cfg.Assertions = 800
	w, err := synthetic.Generate(cfg, randutil.New(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params.Z-w.TrueRatio) > 0.08 {
		t.Fatalf("ẑ = %v, want ≈ %v", res.Params.Z, w.TrueRatio)
	}
	var errA, errB stats.Series
	for i := range res.Params.Sources {
		errA.Add(math.Abs(res.Params.Sources[i].A - w.TrueParams.Sources[i].A))
		errB.Add(math.Abs(res.Params.Sources[i].B - w.TrueParams.Sources[i].B))
	}
	if errA.Mean() > 0.08 || errB.Mean() > 0.08 {
		t.Fatalf("mean |â-a| = %v, |b̂-b| = %v", errA.Mean(), errB.Mean())
	}
}

// TestVariantsDivergeOnDependentData: the three variants must actually
// compute different things when dependent claims exist.
func TestVariantsDivergeOnDependentData(t *testing.T) {
	w := genWorld(t, 20, 50, 17)
	if w.Dataset.NumDependentClaims() == 0 {
		t.Fatal("test world has no dependent claims")
	}
	resExt, _ := RunCtx(context.Background(), w.Dataset, VariantExt, Options{})
	resInd, _ := RunCtx(context.Background(), w.Dataset, VariantIndependent, Options{})
	resSoc, _ := RunCtx(context.Background(), w.Dataset, VariantSocial, Options{})
	if samePosteriors(resExt.Posterior, resInd.Posterior) {
		t.Error("EM-Ext and EM identical on dependent data")
	}
	if samePosteriors(resInd.Posterior, resSoc.Posterior) {
		t.Error("EM and EM-Social identical on dependent data")
	}
}

// TestVariantsAgreeWithoutDependencies: with no dependent pairs at all,
// all three likelihoods coincide, so results must match closely.
func TestVariantsAgreeWithoutDependencies(t *testing.T) {
	cfg := synthetic.DefaultConfig()
	cfg.Sources = 10
	cfg.Trees = synthetic.FixedInt(10) // every source is a root
	w, err := synthetic.Generate(cfg, randutil.New(23))
	if err != nil {
		t.Fatal(err)
	}
	if w.Dataset.NumDependentClaims() != 0 {
		t.Fatal("all-roots world has dependent claims")
	}
	resInd, _ := RunCtx(context.Background(), w.Dataset, VariantIndependent, Options{})
	resSoc, _ := RunCtx(context.Background(), w.Dataset, VariantSocial, Options{})
	for j := range resInd.Posterior {
		if math.Abs(resInd.Posterior[j]-resSoc.Posterior[j]) > 1e-9 {
			t.Fatalf("EM vs EM-Social differ at %d without dependencies", j)
		}
	}
}

func TestExplicitInitHonored(t *testing.T) {
	w := genWorld(t, 8, 25, 31)
	init := w.TrueParams.Clone()
	res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{Init: init, MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One iteration from truth must stay near truth.
	if math.Abs(res.Params.Z-init.Z) > 0.3 {
		t.Fatalf("explicit init ignored: ẑ = %v vs init %v", res.Params.Z, init.Z)
	}
	// The caller's init must not be mutated.
	if init.Z != w.TrueParams.Z || !slices.Equal(init.Sources, w.TrueParams.Sources) {
		t.Fatal("Run mutated the caller's Init")
	}
}

func TestConvergenceFlag(t *testing.T) {
	w := genWorld(t, 10, 30, 77)
	res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{MaxIters: 500, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("EM did not converge in 500 iterations")
	}
	short, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{MaxIters: 1, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if short.Converged {
		t.Fatal("1-iteration run reported convergence with tiny tolerance")
	}
}

// TestLikelihoodMonotone: EM's defining property — the data log-likelihood
// must not decrease across iterations (up to numerical slack). The
// smoothed M-step is a MAP-flavored update, so we test with smoothing off.
func TestLikelihoodMonotone(t *testing.T) {
	w := genWorld(t, 10, 40, 55)
	prev := math.Inf(-1)
	for iters := 1; iters <= 30; iters += 3 {
		res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{
			MaxIters: iters, Tol: 1e-15, Smoothing: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.LogLikelihood < prev-1e-6 {
			t.Fatalf("log-likelihood decreased: %v -> %v at iters=%d", prev, res.LogLikelihood, iters)
		}
		prev = res.LogLikelihood
	}
}

func TestEMExtImplementsFactFinder(t *testing.T) {
	w := genWorld(t, 8, 20, 41)
	e := &EMExt{Opts: Options{}}
	if e.Name() != "EM-Ext" {
		t.Fatalf("Name = %q", e.Name())
	}
	res, err := e.RunContext(context.Background(), w.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK(5)) != 5 {
		t.Fatal("TopK broken")
	}
}

func samePosteriors(a, b []float64) bool {
	for j := range a {
		if math.Abs(a[j]-b[j]) > 1e-12 {
			return false
		}
	}
	return true
}

func genWorld(t *testing.T, n, m int, seed int64) *synthetic.World {
	t.Helper()
	cfg := synthetic.DefaultConfig()
	cfg.Sources = n
	cfg.Assertions = m
	if cfg.Trees.Hi > n {
		cfg.Trees = synthetic.IntRange{Lo: (n + 2) / 3, Hi: (n + 1) / 2}
	}
	w, err := synthetic.Generate(cfg, randutil.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}
