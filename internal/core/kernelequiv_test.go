package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"depsense/internal/claims"
	"depsense/internal/factfind"
)

// The kernel equivalence harness: every case runs the full estimator — not
// a single step — at Workers 1 and 8 and from every Scratch history, and
// demands a Result byte-equal to the serial run from a fresh Scratch. The
// bit-exact oracle that serial run answers to is refEngine
// (reference_test.go), which TestIterationMatchesReference runs over the
// kernelGrid datasets too (DESIGN.md §13).

// kernelGrid is the (n, m, density, seed) case grid. Densities span
// Twitter-sparse (empty columns included) through the paper's dense
// simulation regime.
var kernelGrid = []struct {
	n, m    int
	density float64
	seed    int64
}{
	{5, 12, 0.08, 1},
	{16, 40, 0.02, 2},
	{25, 80, 0.15, 3},
	{40, 64, 0.5, 4},
	{64, 160, 0.05, 5},
	{12, 30, 0.9, 6},
}

// buildRandomDataset draws a dataset at the given claim density, with a
// mix of dependent claims and silent-dependent pairs.
func buildRandomDataset(t *testing.T, n, m int, density float64, seed int64) *claims.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := claims.NewBuilder(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			switch {
			case rng.Float64() < density:
				b.AddClaim(i, j, rng.Float64() < 0.35)
			case rng.Float64() < density/4:
				b.MarkSilentDependent(i, j)
			}
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// scratchHistories are the Scratch states every differential case runs
// from: "fresh" is a new Scratch, and "sparse" and "dense" are Scratches
// left behind by a short EM-Ext fit on that reference dataset, so their
// buffers, log memo and posterior memo hold another fit's sizes and
// values. A Result must not depend on which.
var scratchHistories = []string{"fresh", "sparse", "dense"}

// usedScratch returns a Scratch with history h (see scratchHistories).
func usedScratch(t *testing.T, refs map[string]*claims.Dataset, h string) *Scratch {
	t.Helper()
	s := NewScratch()
	if h == "fresh" {
		return s
	}
	if _, err := RunCtx(context.Background(), refs[h], VariantExt, Options{MaxIters: 2, Scratch: s}); err != nil {
		t.Fatalf("dirtying a Scratch on %s: %v", h, err)
	}
	return s
}

// TestKernelEquivalence: for every grid case, variant, Scratch history and
// worker count, the Result must be bit-identical to the serial run.
func TestKernelEquivalence(t *testing.T) {
	refs := referenceDatasets(t)
	for _, tc := range kernelGrid {
		ds := buildRandomDataset(t, tc.n, tc.m, tc.density, tc.seed)
		for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
			opts := Options{DepMode: DepModeJoint}
			ref, err := RunCtx(context.Background(), ds, v, opts)
			if err != nil {
				t.Fatalf("n=%d m=%d %v ref: %v", tc.n, tc.m, v, err)
			}
			for _, h := range scratchHistories {
				for _, workers := range []int{1, 8} {
					o := opts
					o.Scratch = usedScratch(t, refs, h)
					o.Workers = workers
					got, err := RunCtx(context.Background(), ds, v, o)
					if err != nil {
						t.Fatalf("n=%d m=%d %v scratch=%s workers=%d: %v", tc.n, tc.m, v, h, workers, err)
					}
					assertKernelIdentical(t, ref, got, tc.n, tc.m, v, h, workers)
				}
			}
		}
	}
}

// TestKernelEquivalencePlugin covers EM-Ext's plug-in path (coarse
// EM-Social fit + pooled-channel re-score), which routes through
// PosteriorOpts rather than the joint iteration.
func TestKernelEquivalencePlugin(t *testing.T) {
	refs := referenceDatasets(t)
	ds := buildRandomDataset(t, 30, 90, 0.04, 11)
	ref, err := RunCtx(context.Background(), ds, VariantExt, Options{DepMode: DepModePlugin})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range scratchHistories {
		for _, workers := range []int{1, 8} {
			got, err := RunCtx(context.Background(), ds, VariantExt, Options{
				DepMode: DepModePlugin, Workers: workers, Scratch: usedScratch(t, refs, h),
			})
			if err != nil {
				t.Fatalf("scratch=%s workers=%d: %v", h, workers, err)
			}
			assertKernelIdentical(t, ref, got, 30, 90, VariantExt, h, workers)
		}
	}
}

// TestKernelEquivalenceScratch: a Scratch reused fit after fit must not
// perturb a single bit either.
func TestKernelEquivalenceScratch(t *testing.T) {
	refs := referenceDatasets(t)
	ds := buildRandomDataset(t, 20, 50, 0.12, 13)
	ref, err := RunCtx(context.Background(), ds, VariantExt, Options{DepMode: DepModeJoint})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range scratchHistories {
		scratch := usedScratch(t, refs, h)
		for _, workers := range []int{1, 8} {
			// Run twice through the same scratch: the second fit starts from
			// the first one's buffers and must still match.
			for pass := 0; pass < 2; pass++ {
				got, err := RunCtx(context.Background(), ds, VariantExt, Options{
					DepMode: DepModeJoint, Workers: workers, Scratch: scratch,
				})
				if err != nil {
					t.Fatalf("scratch=%s workers=%d pass=%d: %v", h, workers, pass, err)
				}
				assertKernelIdentical(t, ref, got, 20, 50, VariantExt, h, workers)
			}
		}
	}
}

func assertKernelIdentical(t *testing.T, ref, got *factfind.Result, n, m int, v Variant, history string, workers int) {
	t.Helper()
	t.Run(fmt.Sprintf("n=%d_m=%d_%v_%s_w%d", n, m, v, history, workers), func(t *testing.T) {
		requireBitIdentical(t, ref, got)
	})
}
