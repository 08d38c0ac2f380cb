package eval

import (
	"fmt"
	"io"
	"time"

	"depsense/internal/bound"
	"depsense/internal/randutil"
	"depsense/internal/stats"
	"depsense/internal/synthetic"
)

// TableIResult reproduces the walk-through example of Section III-A.
type TableIResult struct {
	Result bound.Result
	// PaperErr is the value the paper reports (0.26980433).
	PaperErr float64
}

// TableI recomputes the bound from the paper's tabulated pattern
// likelihoods.
func TableI() (TableIResult, error) {
	p1 := []float64{
		0.18546216, 0.17606773, 0.00033244, 0.01971855,
		0.24427898, 0.19063986, 0.02321803, 0.16028224,
	}
	p0 := []float64{
		0.05851677, 0.05300123, 0.12803859, 0.16032756,
		0.14231588, 0.08222352, 0.18716734, 0.18840910,
	}
	res, err := bound.FromPatternTable(p1, p0, 0.5)
	if err != nil {
		return TableIResult{}, err
	}
	return TableIResult{Result: res, PaperErr: 0.26980433}, nil
}

// Render writes the Table I comparison.
func (r TableIResult) Render(w io.Writer) error {
	t := &table{header: []string{"quantity", "reproduced", "paper"}}
	t.add("Err", fmt.Sprintf("%.8f", r.Result.Err), fmt.Sprintf("%.8f", r.PaperErr))
	t.add("false positive part", fmt.Sprintf("%.8f", r.Result.FalsePos), "-")
	t.add("false negative part", fmt.Sprintf("%.8f", r.Result.FalseNeg), "-")
	return t.write(w)
}

// BoundPoint is one sweep point of the bound-precision experiments
// (Figs. 3-5) plus the timing data of Fig. 6.
type BoundPoint struct {
	X             float64
	Exact         float64
	Approx        float64
	ExactFP       float64
	ApproxFP      float64
	ExactFN       float64
	ApproxFN      float64
	AbsDiff       float64
	ExactSeconds  float64
	ApproxSeconds float64
}

// BoundSeries is a full sweep.
type BoundSeries struct {
	Label   string
	XName   string
	Points  []BoundPoint
	MaxDiff float64
}

// Render writes the sweep as a table.
func (s BoundSeries) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s (max |exact-approx| = %.4f)\n", s.Label, s.MaxDiff); err != nil {
		return err
	}
	t := &table{header: []string{
		s.XName, "exact", "approx", "exactFP", "approxFP", "exactFN", "approxFN", "exact_s", "approx_s",
	}}
	for _, p := range s.Points {
		t.add(fmt.Sprintf("%g", p.X), f4(p.Exact), f4(p.Approx),
			f4(p.ExactFP), f4(p.ApproxFP), f4(p.ExactFN), f4(p.ApproxFN),
			f4(p.ExactSeconds), f4(p.ApproxSeconds))
	}
	return t.write(w)
}

// boundSweep runs exact and approximate bounds over generated worlds for
// each configuration in cfgs.
func boundSweep(label, xName string, xs []float64, cfgs []synthetic.Config, c Config) (BoundSeries, error) {
	c = c.normalized()
	series := BoundSeries{Label: label, XName: xName}
	for k, cfg := range cfgs {
		var exact, approx, exFP, apFP, exFN, apFN stats.Series
		var exactTime, approxTime time.Duration
		for r := 0; r < c.BoundRuns; r++ {
			if err := c.Ctx.Err(); err != nil {
				return BoundSeries{}, err
			}
			rng := randutil.New(c.Seed + int64(1000*k+r))
			w, err := synthetic.Generate(cfg, rng)
			if err != nil {
				return BoundSeries{}, fmt.Errorf("eval: %s point %d: %w", label, k, err)
			}
			// Both methods must see the SAME sampled column subset for the
			// precision comparison to measure approximation error rather
			// than sampling disagreement, so they get identically seeded
			// generators.
			colSeed := rng.Int63()
			start := time.Now() //lint:allow seedsource wall-clock timing: this experiment reports bound computation seconds
			ex, err := bound.ForDatasetContext(c.Ctx, w.Dataset, w.TrueParams, bound.DatasetOptions{
				Method:     bound.MethodExact,
				MaxColumns: c.MaxExactColumns,
				Workers:    c.Workers,
			}, randutil.New(colSeed))
			if err != nil {
				return BoundSeries{}, fmt.Errorf("eval: %s exact: %w", label, err)
			}
			exactTime += time.Since(start)

			start = time.Now() //lint:allow seedsource wall-clock timing: this experiment reports bound computation seconds
			ap, err := bound.ForDatasetContext(c.Ctx, w.Dataset, w.TrueParams, bound.DatasetOptions{
				Method:      bound.MethodApprox,
				MaxColumns:  c.MaxExactColumns,
				GibbsSweeps: c.GibbsSweeps,
			}, randutil.New(colSeed))
			if err != nil {
				return BoundSeries{}, fmt.Errorf("eval: %s approx: %w", label, err)
			}
			approxTime += time.Since(start)

			exact.Add(ex.Err)
			approx.Add(ap.Err)
			exFP.Add(ex.FalsePos)
			apFP.Add(ap.FalsePos)
			exFN.Add(ex.FalseNeg)
			apFN.Add(ap.FalseNeg)
		}
		runs := float64(c.BoundRuns)
		p := BoundPoint{
			X:             xs[k],
			Exact:         exact.Mean(),
			Approx:        approx.Mean(),
			ExactFP:       exFP.Mean(),
			ApproxFP:      apFP.Mean(),
			ExactFN:       exFN.Mean(),
			ApproxFN:      apFN.Mean(),
			ExactSeconds:  exactTime.Seconds() / runs,
			ApproxSeconds: approxTime.Seconds() / runs,
		}
		p.AbsDiff = abs(p.Exact - p.Approx)
		if p.AbsDiff > series.MaxDiff {
			series.MaxDiff = p.AbsDiff
		}
		series.Points = append(series.Points, p)
	}
	return series, nil
}

// Fig3BoundVsSources varies n from 5 to 25 in steps of 5 (Fig. 3), also
// yielding the timing comparison of Fig. 6.
func Fig3BoundVsSources(c Config) (BoundSeries, error) {
	var cfgs []synthetic.Config
	var xs []float64
	for n := 5; n <= 25; n += 5 {
		cfg := synthetic.DefaultConfig()
		cfg.Sources = n
		if cfg.Trees.Hi > n {
			cfg.Trees = synthetic.IntRange{Lo: (n + 1) / 2, Hi: (n + 1) / 2}
		}
		cfgs = append(cfgs, cfg)
		xs = append(xs, float64(n))
	}
	return boundSweep("Fig 3: bound precision vs number of sources", "n", xs, cfgs, c)
}

// Fig4BoundVsTrees varies τ from 1 to 11 (Fig. 4).
func Fig4BoundVsTrees(c Config) (BoundSeries, error) {
	var cfgs []synthetic.Config
	var xs []float64
	for tau := 1; tau <= 11; tau++ {
		cfg := synthetic.DefaultConfig()
		cfg.Trees = synthetic.FixedInt(tau)
		cfgs = append(cfgs, cfg)
		xs = append(xs, float64(tau))
	}
	return boundSweep("Fig 4: bound precision vs number of dependency trees", "tau", xs, cfgs, c)
}

// Fig5BoundVsOdds fixes the independent discrimination odds at 2 and varies
// the dependent odds from 1.1 to 2.0 (Fig. 5).
func Fig5BoundVsOdds(c Config) (BoundSeries, error) {
	var cfgs []synthetic.Config
	var xs []float64
	for odds := 1.1; odds < 2.05; odds += 0.1 {
		cfg := synthetic.DefaultConfig()
		cfg.PIndepT = synthetic.Fixed(2.0 / 3.0)
		cfg.PDepT = synthetic.Fixed(synthetic.OddsToProb(odds))
		cfgs = append(cfgs, cfg)
		xs = append(xs, float64(int(odds*10+0.5))/10)
	}
	return boundSweep("Fig 5: bound precision vs dependent discrimination odds", "depT_odds", xs, cfgs, c)
}

// Fig6Timing extracts the computation-time series of Fig. 6 from the Fig. 3
// sweep (exact cost explodes with n; approximate cost stays flat).
func Fig6Timing(s BoundSeries) BoundSeries {
	out := BoundSeries{Label: "Fig 6: bound computation time (seconds per run)", XName: s.XName, Points: s.Points}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
