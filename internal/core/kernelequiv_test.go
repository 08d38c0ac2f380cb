package core

import (
	"fmt"
	"math/rand"
	"testing"

	"depsense/internal/claims"
	"depsense/internal/factfind"
)

// The kernel differential harness: the dense-reference kernel scans the
// full n×m grid and exists purely so the production sparse kernel has an
// oracle to be bit-identical against (DESIGN.md §13). Every case runs the
// full estimator — not a single step — under both kernels at Workers 1
// and 8 and demands byte-equal Result structs.

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

// TestKernelEquivalence: for every grid case, variant, kernel, and worker
// count, the Result must be bit-identical to the serial sparse run.
func TestKernelEquivalence(t *testing.T) {
	for _, tc := range kernelGrid {
		ds := buildRandomDataset(t, tc.n, tc.m, tc.density, tc.seed)
		for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
			opts := Options{DepMode: DepModeJoint}
			ref, err := Run(ds, v, opts)
			if err != nil {
				t.Fatalf("n=%d m=%d %v ref: %v", tc.n, tc.m, v, err)
			}
			for _, kernel := range []Kernel{KernelSparse, KernelDense} {
				for _, workers := range []int{1, 8} {
					o := opts
					o.Kernel = kernel
					o.Workers = workers
					got, err := Run(ds, v, o)
					if err != nil {
						t.Fatalf("n=%d m=%d %v kernel=%v workers=%d: %v", tc.n, tc.m, v, kernel, workers, err)
					}
					assertKernelIdentical(t, ref, got, tc.n, tc.m, v, kernel, workers)
				}
			}
		}
	}
}

// TestKernelEquivalencePlugin covers EM-Ext's plug-in path (coarse
// EM-Social fit + pooled-channel re-score), which routes through
// PosteriorOpts rather than the joint iteration.
func TestKernelEquivalencePlugin(t *testing.T) {
	ds := buildRandomDataset(t, 30, 90, 0.04, 11)
	ref, err := Run(ds, VariantExt, Options{DepMode: DepModePlugin})
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []Kernel{KernelSparse, KernelDense} {
		for _, workers := range []int{1, 8} {
			got, err := Run(ds, VariantExt, Options{
				DepMode: DepModePlugin, Kernel: kernel, Workers: workers,
			})
			if err != nil {
				t.Fatalf("kernel=%v workers=%d: %v", kernel, workers, err)
			}
			assertKernelIdentical(t, ref, got, 30, 90, VariantExt, kernel, workers)
		}
	}
}

// TestKernelEquivalenceScratch: a reused Scratch must not perturb a single
// bit either.
func TestKernelEquivalenceScratch(t *testing.T) {
	ds := buildRandomDataset(t, 20, 50, 0.12, 13)
	ref, err := Run(ds, VariantExt, Options{DepMode: DepModeJoint})
	if err != nil {
		t.Fatal(err)
	}
	scratch := NewScratch()
	for _, kernel := range []Kernel{KernelSparse, KernelDense} {
		for _, workers := range []int{1, 8} {
			// Run twice through the same scratch: the second fit starts from
			// dirty buffers and must still match.
			for pass := 0; pass < 2; pass++ {
				got, err := Run(ds, VariantExt, Options{
					DepMode: DepModeJoint, Kernel: kernel, Workers: workers, Scratch: scratch,
				})
				if err != nil {
					t.Fatalf("kernel=%v workers=%d pass=%d: %v", kernel, workers, pass, err)
				}
				assertKernelIdentical(t, ref, got, 20, 50, VariantExt, kernel, workers)
			}
		}
	}
}

func assertKernelIdentical(t *testing.T, ref, got *factfind.Result, n, m int, v Variant, kernel Kernel, workers int) {
	t.Helper()
	t.Run(fmt.Sprintf("n=%d_m=%d_%v_%v_w%d", n, m, v, kernel, workers), func(t *testing.T) {
		requireBitIdentical(t, ref, got)
	})
}
