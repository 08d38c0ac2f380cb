package eval

import (
	"fmt"
	"time"

	"depsense/internal/claims"
	"depsense/internal/core"
	"depsense/internal/model"
	"depsense/internal/randutil"
)

// hotScale sizes one hot-layer dataset: claims random source-assertion
// claims (about a third dependent) plus claims/4 silent-dependent marks,
// scattered over a sources × assertions grid.
type hotScale struct {
	name                        string
	sources, assertions, claims int
}

// benchHot times the estimator's hot paths — the E-step, the M-step, and a
// full fixed-iteration EM-Ext fit — single-threaded on Twitter-sparse
// datasets, one row of fastest-rep seconds per case. The rows are reported,
// not gated: TestFitCostIsSparse (internal/core) keeps both steps sparse
// and TestIterationMatchesReference keeps their output bits.
func benchHot(c Config, sz benchSizes, rep *BenchReport) error {
	for _, sc := range sz.hotScales {
		ds, err := benchHotDataset(sc, c.Seed)
		if err != nil {
			return fmt.Errorf("eval: bench hot %s: %w", sc.name, err)
		}
		init := model.InformedInitParams(randutil.New(c.Seed+1), sc.sources)
		stepper := func() (*core.KernelStepper, error) {
			return core.NewKernelStepper(ds, core.VariantExt, init, core.Options{Workers: 1})
		}
		cases := []struct {
			name string
			run  func() error
		}{
			{"estep", func() error {
				st, err := stepper()
				if err != nil {
					return err
				}
				for it := 0; it < sz.hotIters; it++ {
					st.EStep()
				}
				return nil
			}},
			{"mstep", func() error {
				st, err := stepper()
				if err != nil {
					return err
				}
				st.EStep() // populate the posteriors the M-step reads
				for it := 0; it < sz.hotIters; it++ {
					st.MStep()
				}
				return nil
			}},
			{"fit", func() error {
				_, err := core.RunCtx(c.Ctx, ds, core.VariantExt, core.Options{
					MaxIters: sz.hotIters, Tol: 1e-300,
					DepMode: core.DepModeJoint, Workers: 1,
				})
				return err
			}},
		}
		for _, bc := range cases {
			var best time.Duration
			for r := 0; r < sz.hotReps; r++ {
				start := time.Now() //lint:allow seedsource wall-clock timing measurement: this benchmark's output IS elapsed seconds
				if err := bc.run(); err != nil {
					return fmt.Errorf("eval: bench hot %s %s: %w", sc.name, bc.name, err)
				}
				if d := time.Since(start); r == 0 || d < best {
					best = d
				}
			}
			rep.add("hot", sc.name+"/"+bc.name+"/sparse", best.Seconds(), "s")
		}
	}
	return nil
}

// benchHotDataset scatters sc.claims claims (35% dependent) and sc.claims/4
// silent-dependent marks uniformly over the grid, drawing nonzeros directly
// — O(nnz) generation, never an n×m scan, so the 10× scale builds in
// milliseconds.
func benchHotDataset(sc hotScale, seed int64) (*claims.Dataset, error) {
	marks := sc.claims + sc.claims/4
	if sc.sources <= 0 || sc.assertions <= 0 || marks > sc.sources*sc.assertions/2 {
		return nil, fmt.Errorf("scale %q is not sparse: %d marks on a %d×%d grid",
			sc.name, marks, sc.sources, sc.assertions)
	}
	rng := randutil.New(seed)
	b := claims.NewBuilder(sc.sources, sc.assertions)
	taken := make(map[[2]int]bool, marks)
	draw := func() (int, int) {
		for {
			i, j := rng.Intn(sc.sources), rng.Intn(sc.assertions)
			if !taken[[2]int{i, j}] {
				taken[[2]int{i, j}] = true
				return i, j
			}
		}
	}
	for k := 0; k < sc.claims; k++ {
		i, j := draw()
		b.AddClaim(i, j, rng.Float64() < 0.35)
	}
	for k := 0; k < sc.claims/4; k++ {
		i, j := draw()
		b.MarkSilentDependent(i, j)
	}
	return b.Build()
}
