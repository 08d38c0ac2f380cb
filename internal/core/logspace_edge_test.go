package core

import (
	"context"
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
// under every variant.

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
			res, err := RunCtx(context.Background(), ds, v, Options{})
			if err != nil {
				t.Fatalf("%s %v: %v", name, v, err)
			}
			assertFiniteResult(t, res, name+"/"+v.String())
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
	res, err := RunCtx(context.Background(), ds, VariantExt, Options{Init: boundary, DepMode: DepModeJoint})
	if err != nil {
		t.Fatal(err)
	}
	assertFiniteResult(t, res, "boundary-init")

	post, ll, err := PosteriorOpts(ds, boundary, Options{})
	if err != nil {
		t.Fatalf("posterior: %v", err)
	}
	assertFiniteResult(t, &factfind.Result{Posterior: post, Params: boundary.Clone(), LogLikelihood: ll},
		"boundary-posterior")
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

// posteriorLSEEdges are the fused helper's inputs at the edges of float64:
// infinities on both, one or mixed sides, NaNs, equal inputs, values near
// the overflow threshold, and differences down to the subnormal range.
var posteriorLSEEdges = [][2]float64{
	{math.Inf(1), math.Inf(1)},
	{math.Inf(-1), math.Inf(-1)},
	{math.Inf(1), math.Inf(-1)},
	{math.Inf(-1), math.Inf(1)},
	{math.Inf(1), 3},
	{3, math.Inf(1)},
	{math.Inf(-1), -3},
	{-3, math.Inf(-1)},
	{math.NaN(), 0},
	{0, math.NaN()},
	{math.NaN(), math.NaN()},
	{math.NaN(), math.Inf(-1)},
	{math.Inf(-1), math.NaN()},
	{0, 0},
	{-42.5, -42.5},
	{1e308, 1e308},
	{1e308, -1e308},
	{-1e308, 1e308},
	{math.MaxFloat64, -math.MaxFloat64},
	{-1e308, -1e308},
	{1, math.Nextafter(1, 2)},
	{math.Nextafter(1, 2), 1},
	{5e-324, 0},
	{0, 5e-324},
	{-5e-324, 5e-324},
	{-1234.5, -1234.5 + 1e-12},
	{-700, 40},
	{40, -700},
}

// sigmoidDiff returns exp(w1)/(exp(w1)+exp(w0)) computed stably: the
// unfused posterior posteriorLSE must reproduce, and refEngine's E-step.
func sigmoidDiff(w1, w0 float64) float64 {
	d := w1 - w0
	if d >= 0 {
		return 1 / (1 + math.Exp(-d))
	}
	ed := math.Exp(d)
	return ed / (1 + ed)
}

// requirePosteriorLSEBits fails unless posteriorLSE reproduces the unfused
// sigmoidDiff + logSumExp pair bit for bit (NaN payloads included).
func requirePosteriorLSEBits(t *testing.T, w1, w0 float64) {
	t.Helper()
	post, lse := posteriorLSE(w1, w0)
	wantPost, wantLSE := sigmoidDiff(w1, w0), logSumExp(w1, w0)
	if math.Float64bits(post) != math.Float64bits(wantPost) ||
		math.Float64bits(lse) != math.Float64bits(wantLSE) {
		t.Fatalf("posteriorLSE(%v, %v) = (%v, %v), want (%v, %v)", w1, w0, post, lse, wantPost, wantLSE)
	}
}

// TestPosteriorLSEEdges: the fused E-step helper matches the unfused pair
// refEngine uses at every edge input.
func TestPosteriorLSEEdges(t *testing.T) {
	for _, c := range posteriorLSEEdges {
		requirePosteriorLSEBits(t, c[0], c[1])
	}
}

// FuzzPosteriorLSE: the fused helper matches the unfused pair bit for bit
// on arbitrary inputs.
func FuzzPosteriorLSE(f *testing.F) {
	for _, c := range posteriorLSEEdges {
		f.Add(c[0], c[1])
	}
	f.Fuzz(requirePosteriorLSEBits)
}
