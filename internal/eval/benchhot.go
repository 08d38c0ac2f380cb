package eval

import (
	"fmt"
	"reflect"
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
// full fixed-iteration EM-Ext fit — under the production sparse kernel
// against the dense-reference kernel, single-threaded, on Twitter-sparse
// datasets. Each case also re-verifies the dense-reference contract: the
// two kernels' outputs must be bit-identical (see DESIGN.md §13; the
// kernelequiv differential suite is the exhaustive check, this is the
// at-scale spot check). Per case it adds dense and sparse seconds (fastest
// rep) and their ratio, the speedup row carrying the identical flag.
func benchHot(c Config, sz benchSizes, rep *BenchReport) error {
	for _, sc := range sz.hotScales {
		ds, err := benchHotDataset(sc, c.Seed)
		if err != nil {
			return fmt.Errorf("eval: bench hot %s: %w", sc.name, err)
		}
		init := model.InformedInitParams(randutil.New(c.Seed+1), sc.sources)

		// stepOutput freezes everything a step sequence computed, so the
		// kernels' outputs can be compared bit for bit.
		type stepOutput struct {
			LL     float64
			Post   []float64
			Params *model.Params
		}
		type benchCase struct {
			name string
			run  func(k core.Kernel) (any, error)
		}
		cases := []benchCase{
			{"estep", func(k core.Kernel) (any, error) {
				st, err := core.NewKernelStepper(ds, core.VariantExt, init, core.Options{Kernel: k, Workers: 1})
				if err != nil {
					return nil, err
				}
				var ll float64
				for it := 0; it < sz.hotIters; it++ {
					ll = st.EStep()
				}
				return stepOutput{LL: ll, Post: st.Posterior()}, nil
			}},
			{"mstep", func(k core.Kernel) (any, error) {
				st, err := core.NewKernelStepper(ds, core.VariantExt, init, core.Options{Kernel: k, Workers: 1})
				if err != nil {
					return nil, err
				}
				ll := st.EStep() // populate the posteriors the M-step reads
				for it := 0; it < sz.hotIters; it++ {
					st.MStep()
				}
				return stepOutput{LL: ll, Params: st.Params()}, nil
			}},
			{"fit", func(k core.Kernel) (any, error) {
				return core.RunCtx(c.Ctx, ds, core.VariantExt, core.Options{
					MaxIters: sz.hotIters, Tol: 1e-300,
					DepMode: core.DepModeJoint, Kernel: k, Workers: 1,
				})
			}},
		}

		for _, bc := range cases {
			var seconds [2]float64
			var outs [2]any
			for ki, k := range []core.Kernel{core.KernelDense, core.KernelSparse} {
				var best time.Duration
				for r := 0; r < sz.hotReps; r++ {
					start := time.Now() //lint:allow seedsource wall-clock timing measurement: this benchmark's output IS elapsed seconds
					v, err := bc.run(k)
					if err != nil {
						return fmt.Errorf("eval: bench hot %s %s kernel=%v: %w", sc.name, bc.name, k, err)
					}
					if d := time.Since(start); r == 0 || d < best {
						best = d
					}
					outs[ki] = v
				}
				seconds[ki] = best.Seconds()
			}
			identical := reflect.DeepEqual(outs[0], outs[1])
			var speedup float64
			if seconds[1] > 0 {
				speedup = seconds[0] / seconds[1]
			}
			name := sc.name + "/" + bc.name
			rep.add("hot", name+"/dense", seconds[0], "s")
			rep.add("hot", name+"/sparse", seconds[1], "s")
			rep.Rows = append(rep.Rows, BenchRow{Layer: "hot", Case: name + "/speedup", Value: speedup, Unit: "x", Identical: &identical})
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
