package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"depsense/internal/claims"
	"depsense/internal/factfind"
	"depsense/internal/model"
)

// Log-space migration edge cases: inputs that would underflow, divide by
// zero, or produce -Inf/NaN in raw-probability space must come out of the
// estimator as finite posteriors in [0, 1] and a finite log-likelihood,
// under both kernels and every variant.

// assertFiniteResult fails if any NaN or infinity escaped into the Result.
func assertFiniteResult(t *testing.T, res *factfind.Result, label string) {
	t.Helper()
	if math.IsNaN(res.LogLikelihood) || math.IsInf(res.LogLikelihood, 0) {
		t.Fatalf("%s: log-likelihood = %v", label, res.LogLikelihood)
	}
	for j, z := range res.Posterior {
		if math.IsNaN(z) || z < 0 || z > 1 {
			t.Fatalf("%s: posterior[%d] = %v outside [0,1]", label, j, z)
		}
	}
	for i, s := range res.Params.Sources {
		for _, v := range []float64{s.A, s.B, s.F, s.G} {
			if math.IsNaN(v) || v < 0 || v > 1 {
				t.Fatalf("%s: params.Sources[%d] carries %v", label, i, v)
			}
		}
	}
	if math.IsNaN(res.Params.Z) {
		t.Fatalf("%s: z = NaN", label)
	}
}

// edgeDatasets builds the degenerate structures the log-space kernels must
// absorb: single-source assertions (one claimant, no corroboration),
// an all-dependent ring (every claim dependent, so EM-Social observes
// nothing and EM-Ext's independent strata are empty), and a dataset with
// unclaimed assertions mixed in.
func edgeDatasets(t *testing.T) map[string]*claims.Dataset {
	t.Helper()
	out := map[string]*claims.Dataset{}

	single := claims.NewBuilder(6, 12)
	for j := 0; j < 12; j++ {
		single.AddClaim(j%6, j, false)
	}
	out["single-source-assertions"] = mustBuildDS(t, single)

	// Ring: source i follows i+1 mod n; every claim is a dependent repeat,
	// plus silent-dependent marks closing each ring.
	ring := claims.NewBuilder(5, 10)
	for j := 0; j < 10; j++ {
		for i := 0; i < 5; i++ {
			if (i+j)%2 == 0 {
				ring.AddClaim(i, j, true)
			} else {
				ring.MarkSilentDependent(i, j)
			}
		}
	}
	out["all-dependent-ring"] = mustBuildDS(t, ring)

	sparse := claims.NewBuilder(8, 20)
	sparse.AddClaim(0, 0, false)
	sparse.AddClaim(1, 0, true)
	sparse.AddClaim(2, 19, true)
	out["mostly-unclaimed"] = mustBuildDS(t, sparse)
	return out
}

func mustBuildDS(t *testing.T, b *claims.Builder) *claims.Dataset {
	t.Helper()
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestEdgeCaseResultsFinite(t *testing.T) {
	for name, ds := range edgeDatasets(t) {
		for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
			for _, kernel := range []Kernel{KernelSparse, KernelDense} {
				res, err := Run(ds, v, Options{Kernel: kernel})
				if err != nil {
					t.Fatalf("%s %v %v: %v", name, v, kernel, err)
				}
				assertFiniteResult(t, res, name+"/"+v.String()+"/"+kernel.String())
			}
		}
	}
}

// TestZeroProbabilityInitFinite: explicit initial parameters sitting on
// the {0, 1} boundary — zero-probability claims taken literally — are
// clamped into the log-safe range and cannot poison the fit.
func TestZeroProbabilityInitFinite(t *testing.T) {
	ds := buildRandomDataset(t, 12, 30, 0.2, 31)
	boundary := model.NewParams(12, 0)
	for i := range boundary.Sources {
		switch i % 3 {
		case 0:
			boundary.Sources[i] = model.SourceParams{A: 0, B: 0, F: 0, G: 0}
		case 1:
			boundary.Sources[i] = model.SourceParams{A: 1, B: 1, F: 1, G: 1}
		default:
			boundary.Sources[i] = model.SourceParams{A: 1, B: 0, F: 1, G: 0}
		}
	}
	for _, kernel := range []Kernel{KernelSparse, KernelDense} {
		res, err := Run(ds, VariantExt, Options{Init: boundary, Kernel: kernel, DepMode: DepModeJoint})
		if err != nil {
			t.Fatalf("%v: %v", kernel, err)
		}
		assertFiniteResult(t, res, "boundary-init/"+kernel.String())

		post, ll, err := PosteriorOpts(ds, boundary, Options{Kernel: kernel})
		if err != nil {
			t.Fatalf("%v posterior: %v", kernel, err)
		}
		assertFiniteResult(t, &factfind.Result{Posterior: post, Params: boundary.Clone(), LogLikelihood: ll},
			"boundary-posterior/"+kernel.String())
	}
}

// TestNoProbexprSuppressions: the log-space migration's contract with the
// linter — the probexpr analyzer passes over core and gibbs with zero
// //lint:allow probexpr suppressions. (depsenselint's own test runs the
// analyzer over the whole repo; this guards the suppression count.)
func TestNoProbexprSuppressions(t *testing.T) {
	for _, dir := range []string{".", "../gibbs"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") ||
				strings.HasSuffix(ent.Name(), "_test.go") {
				continue // production sources only (this file names the marker)
			}
			src, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(src), "lint:allow probexpr") {
				t.Errorf("%s/%s carries a probexpr suppression; the log-space kernels must pass clean", dir, ent.Name())
			}
		}
	}
}
