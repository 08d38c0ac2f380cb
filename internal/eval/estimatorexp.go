package eval

import (
	"fmt"
	"io"

	"depsense/internal/baselines"
	"depsense/internal/bound"
	"depsense/internal/core"
	"depsense/internal/factfind"
	"depsense/internal/parallel"
	"depsense/internal/randutil"
	"depsense/internal/stats"
	"depsense/internal/synthetic"
)

// estimatorAlgNames is the lineup of the simulation experiments
// (Section V-B), in the paper's order.
var estimatorAlgNames = []string{"EM-Ext", "EM", "EM-Social", "Optimal"}

// AlgMetrics aggregates one algorithm's performance at one sweep point.
type AlgMetrics struct {
	Accuracy float64
	FalsePos float64
	FalseNeg float64
	CI95     float64
}

// EstimatorPoint is one sweep point of Figs. 7-10.
type EstimatorPoint struct {
	X float64
	// ByAlg maps algorithm name (EM-Ext, EM, EM-Social, Optimal) to its
	// metrics; Optimal is the transformed error bound 1-Err.
	ByAlg map[string]AlgMetrics
}

// EstimatorSeries is one full sweep.
type EstimatorSeries struct {
	Label  string
	XName  string
	Points []EstimatorPoint
}

// Render writes accuracy plus FP/FN decomposition per algorithm.
func (s EstimatorSeries) Render(w io.Writer) error {
	if _, err := fmt.Fprintln(w, s.Label); err != nil {
		return err
	}
	header := []string{s.XName}
	for _, a := range estimatorAlgNames {
		header = append(header, a, a+"_fp", a+"_fn")
	}
	t := &table{header: header}
	for _, p := range s.Points {
		row := []string{fmt.Sprintf("%g", p.X)}
		for _, a := range estimatorAlgNames {
			m := p.ByAlg[a]
			row = append(row, f3(m.Accuracy), f3(m.FalsePos), f3(m.FalseNeg))
		}
		t.add(row...)
	}
	return t.write(w)
}

// runMetrics holds one repetition's outcomes: indexes 0-2 are the three
// estimators in lineup order; index 3 is the optimal bound (valid flags
// distinguish the repetitions that computed it).
type runMetrics struct {
	acc, fp, fn [4]float64
	hasOptimal  bool
}

// estimatorSweep runs the three EM variants and the optimal bound across
// the generated configurations. Repetitions are independent and run on a
// bounded worker pool; aggregation is sequential over pre-indexed slots, so
// results are identical to a serial run.
func estimatorSweep(label, xName string, xs []float64, cfgs []synthetic.Config, c Config) (EstimatorSeries, error) {
	c = c.normalized()
	series := EstimatorSeries{Label: label, XName: xName}
	for k, cfg := range cfgs {
		runs := make([]runMetrics, c.EstimatorRuns)
		err := parallel.ForEachCtx(c.Ctx, c.EstimatorRuns, c.Workers, func(r int) error {
			rng := randutil.New(c.Seed + int64(10000*k+r))
			w, err := synthetic.Generate(cfg, rng)
			if err != nil {
				return fmt.Errorf("eval: %s point %d: %w", label, k, err)
			}
			algs := []factfind.FactFinder{
				&core.EMExt{},
				&baselines.EM{},
				&baselines.EMSocial{},
			}
			for ai, alg := range algs {
				res, err := alg.RunContext(c.Ctx, w.Dataset)
				if err != nil {
					return fmt.Errorf("eval: %s %s: %w", label, alg.Name(), err)
				}
				cl, err := stats.Classify(res.Decisions(factfind.DefaultThreshold), w.Truth)
				if err != nil {
					return err
				}
				runs[r].acc[ai] = cl.Accuracy
				runs[r].fp[ai] = cl.FalsePosRate
				runs[r].fn[ai] = cl.FalseNegRate
			}
			if r < c.OptimalRuns {
				br, err := bound.ForDatasetContext(c.Ctx, w.Dataset, w.TrueParams, bound.DatasetOptions{
					Method:      bound.MethodApprox,
					MaxColumns:  8,
					GibbsSweeps: c.GibbsSweeps / 4,
				}, rng)
				if err != nil {
					return fmt.Errorf("eval: %s optimal: %w", label, err)
				}
				runs[r].acc[3] = 1 - br.Err
				runs[r].fp[3] = br.FalsePos
				runs[r].fn[3] = br.FalseNeg
				runs[r].hasOptimal = true
			}
			return nil
		})
		if err != nil {
			return EstimatorSeries{}, err
		}

		accs := map[string]*stats.Series{}
		fps := map[string]*stats.Series{}
		fns := map[string]*stats.Series{}
		for _, a := range estimatorAlgNames {
			accs[a], fps[a], fns[a] = &stats.Series{}, &stats.Series{}, &stats.Series{}
		}
		for _, rm := range runs {
			for ai, a := range [...]string{"EM-Ext", "EM", "EM-Social"} {
				accs[a].Add(rm.acc[ai])
				fps[a].Add(rm.fp[ai])
				fns[a].Add(rm.fn[ai])
			}
			if rm.hasOptimal {
				accs["Optimal"].Add(rm.acc[3])
				fps["Optimal"].Add(rm.fp[3])
				fns["Optimal"].Add(rm.fn[3])
			}
		}
		point := EstimatorPoint{X: xs[k], ByAlg: map[string]AlgMetrics{}}
		for _, a := range estimatorAlgNames {
			point.ByAlg[a] = AlgMetrics{
				Accuracy: accs[a].Mean(),
				FalsePos: fps[a].Mean(),
				FalseNeg: fns[a].Mean(),
				CI95:     accs[a].CI95(),
			}
		}
		series.Points = append(series.Points, point)
	}
	return series, nil
}

// Fig7EstimatorVsSources varies n from 20 to 50 in steps of 5 (Fig. 7).
func Fig7EstimatorVsSources(c Config) (EstimatorSeries, error) {
	var cfgs []synthetic.Config
	var xs []float64
	for n := 20; n <= 50; n += 5 {
		cfg := synthetic.EstimatorConfig()
		cfg.Sources = n
		cfgs = append(cfgs, cfg)
		xs = append(xs, float64(n))
	}
	return estimatorSweep("Fig 7: estimator accuracy vs number of sources", "n", xs, cfgs, c)
}

// Fig8EstimatorVsAssertions varies m from 10 to 100 in steps of 10 at
// n = 100 (Fig. 8).
func Fig8EstimatorVsAssertions(c Config) (EstimatorSeries, error) {
	var cfgs []synthetic.Config
	var xs []float64
	for m := 10; m <= 100; m += 10 {
		cfg := synthetic.EstimatorConfig()
		cfg.Sources = 100
		cfg.Assertions = m
		cfgs = append(cfgs, cfg)
		xs = append(xs, float64(m))
	}
	return estimatorSweep("Fig 8: estimator accuracy vs number of assertions (n=100)", "m", xs, cfgs, c)
}

// Fig9EstimatorVsTrees varies τ from 1 to 11 (Fig. 9).
func Fig9EstimatorVsTrees(c Config) (EstimatorSeries, error) {
	var cfgs []synthetic.Config
	var xs []float64
	for tau := 1; tau <= 11; tau++ {
		cfg := synthetic.EstimatorConfig()
		cfg.Trees = synthetic.FixedInt(tau)
		cfgs = append(cfgs, cfg)
		xs = append(xs, float64(tau))
	}
	return estimatorSweep("Fig 9: estimator accuracy vs number of dependency trees", "tau", xs, cfgs, c)
}

// Fig10EstimatorVsOdds fixes the independent odds at 2 and varies the
// dependent odds from 1.1 to 2.0 (Fig. 10).
func Fig10EstimatorVsOdds(c Config) (EstimatorSeries, error) {
	var cfgs []synthetic.Config
	var xs []float64
	for odds := 1.1; odds < 2.05; odds += 0.1 {
		cfg := synthetic.EstimatorConfig()
		cfg.PIndepT = synthetic.Fixed(2.0 / 3.0)
		cfg.PDepT = synthetic.Fixed(synthetic.OddsToProb(odds))
		cfgs = append(cfgs, cfg)
		xs = append(xs, float64(int(odds*10+0.5))/10)
	}
	return estimatorSweep("Fig 10: estimator accuracy vs dependent discrimination odds", "depT_odds", xs, cfgs, c)
}
