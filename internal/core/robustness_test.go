package core

// Failure-injection tests: degenerate and adversarial datasets must never
// produce NaN posteriors, panics, or invalid parameters.

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"depsense/internal/claims"
	"depsense/internal/model"
	"depsense/internal/randutil"
)

// checkResult asserts the structural health of an estimator output.
func checkResult(t *testing.T, ds *claims.Dataset, variant Variant) {
	t.Helper()
	res, err := RunCtx(context.Background(), ds, variant, Options{})
	if err != nil {
		t.Fatalf("%v: %v", variant, err)
	}
	if len(res.Posterior) != ds.M() {
		t.Fatalf("%v: posterior length %d, want %d", variant, len(res.Posterior), ds.M())
	}
	for j, p := range res.Posterior {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1 {
			t.Fatalf("%v: posterior[%d] = %v", variant, j, p)
		}
	}
	if err := res.Params.Validate(); err != nil {
		t.Fatalf("%v: params: %v", variant, err)
	}
	if math.IsNaN(res.LogLikelihood) || math.IsInf(res.LogLikelihood, 1) {
		t.Fatalf("%v: log-likelihood = %v", variant, res.LogLikelihood)
	}
}

func allVariants(t *testing.T, ds *claims.Dataset) {
	t.Helper()
	for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
		checkResult(t, ds, v)
	}
}

func TestNoClaimsAtAll(t *testing.T) {
	ds, err := claims.NewBuilder(5, 8).Build()
	if err != nil {
		t.Fatal(err)
	}
	allVariants(t, ds)
}

func TestEveryPairClaimed(t *testing.T) {
	b := claims.NewBuilder(4, 6)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			b.AddClaim(i, j, false)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	allVariants(t, ds)
}

func TestEverythingDependent(t *testing.T) {
	b := claims.NewBuilder(4, 6)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			if (i+j)%2 == 0 {
				b.AddClaim(i, j, true)
			} else {
				b.MarkSilentDependent(i, j)
			}
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	allVariants(t, ds)
}

func TestSingleSourceSingleAssertion(t *testing.T) {
	b := claims.NewBuilder(1, 1)
	b.AddClaim(0, 0, false)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	allVariants(t, ds)
}

func TestOneSourceManyAssertions(t *testing.T) {
	b := claims.NewBuilder(1, 40)
	for j := 0; j < 40; j += 2 {
		b.AddClaim(0, j, false)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	allVariants(t, ds)
}

func TestManySourcesOneAssertion(t *testing.T) {
	b := claims.NewBuilder(40, 1)
	for i := 0; i < 40; i += 2 {
		b.AddClaim(i, 0, i%4 == 0)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	allVariants(t, ds)
}

func TestPerfectlyContradictorySources(t *testing.T) {
	// Two blocs claim complementary halves of the assertion space: a
	// maximally ambiguous dataset, the label-switching worst case.
	b := claims.NewBuilder(10, 20)
	for i := 0; i < 10; i++ {
		for j := 0; j < 20; j++ {
			if (i < 5) == (j < 10) {
				b.AddClaim(i, j, false)
			}
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	allVariants(t, ds)
}

// TestRandomDatasetsNeverBreak fuzzes dataset shapes through all variants.
func TestRandomDatasetsNeverBreak(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := randutil.New(seed)
		n := 1 + rng.Intn(15)
		m := 1 + rng.Intn(15)
		b := claims.NewBuilder(n, m)
		type pk struct{ i, j int }
		claimed := map[pk]bool{}
		for k := 0; k < rng.Intn(60); k++ {
			i, j := rng.Intn(n), rng.Intn(m)
			b.AddClaim(i, j, rng.Intn(2) == 0)
			claimed[pk{i, j}] = true
		}
		for k := 0; k < rng.Intn(20); k++ {
			i, j := rng.Intn(n), rng.Intn(m)
			if claimed[pk{i, j}] {
				continue
			}
			b.MarkSilentDependent(i, j)
		}
		ds, err := b.Build()
		if err != nil {
			return false
		}
		for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
			res, err := RunCtx(context.Background(), ds, v, Options{MaxIters: 40})
			if err != nil {
				return false
			}
			for _, p := range res.Posterior {
				if math.IsNaN(p) || p < 0 || p > 1 {
					return false
				}
			}
			if res.Params.Validate() != nil {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExtremeInitParams: boundary-valued explicit initializations must be
// clamped, not propagated as ±Inf likelihoods.
func TestExtremeInitParams(t *testing.T) {
	w := genWorld(t, 8, 20, 5)
	init := w.TrueParams.Clone()
	for i := range init.Sources {
		init.Sources[i] = pickBoundary(i)
	}
	init.Z = 1
	res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{Init: init})
	if err != nil {
		t.Fatal(err)
	}
	for j, p := range res.Posterior {
		if math.IsNaN(p) {
			t.Fatalf("posterior[%d] is NaN", j)
		}
	}
}

func pickBoundary(i int) model.SourceParams {
	switch i % 4 {
	case 0:
		return model.SourceParams{A: 1, B: 0, F: 1, G: 0}
	case 1:
		return model.SourceParams{A: 0, B: 1, F: 0, G: 1}
	case 2:
		return model.SourceParams{A: 1, B: 1, F: 1, G: 1}
	default:
		return model.SourceParams{}
	}
}
