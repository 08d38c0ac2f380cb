// Package depsense's root benchmarks regenerate every table and figure of
// the paper at benchmark-friendly scale; cmd/experiments runs the same
// sweeps at the paper's full repetition counts. Each figure benchmark
// reports the metric the figure plots (error-bound values, accuracies)
// through b.ReportMetric, so `go test -bench=.` prints the series alongside
// the timings.
package depsense

import (
	"context"
	"fmt"
	"testing"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/bound"
	"depsense/internal/core"
	"depsense/internal/eval"
	"depsense/internal/factfind"
	"depsense/internal/grader"
	"depsense/internal/randutil"
	"depsense/internal/stats"
	"depsense/internal/synthetic"
	"depsense/internal/twittersim"
)

// BenchmarkTableIBound recomputes the walk-through example of Table I.
func BenchmarkTableIBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.TableI()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Result.Err, "bound")
		}
	}
}

// benchBoundConfig builds the generator configuration of the bound
// experiments at one sweep point.
func benchBoundPoint(b *testing.B, cfg synthetic.Config, method bound.Method) {
	b.Helper()
	var errBound stats.Series
	for i := 0; i < b.N; i++ {
		rng := randutil.New(int64(100 + i))
		w, err := synthetic.Generate(cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		res, err := bound.ForDatasetContext(context.Background(), w.Dataset, w.TrueParams, bound.DatasetOptions{
			Method:      method,
			MaxColumns:  8,
			GibbsSweeps: 2000,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		errBound.Add(res.Err)
	}
	b.ReportMetric(errBound.Mean(), "bound")
}

// BenchmarkFig3BoundVsSources sweeps n (Fig. 3): exact vs approximate
// bound precision as the number of sources grows.
func BenchmarkFig3BoundVsSources(b *testing.B) {
	for n := 5; n <= 25; n += 5 {
		cfg := synthetic.DefaultConfig()
		cfg.Sources = n
		if cfg.Trees.Hi > n {
			cfg.Trees = synthetic.FixedInt((n + 1) / 2)
		}
		b.Run(fmt.Sprintf("exact/n=%d", n), func(b *testing.B) {
			benchBoundPoint(b, cfg, bound.MethodExact)
		})
		b.Run(fmt.Sprintf("approx/n=%d", n), func(b *testing.B) {
			benchBoundPoint(b, cfg, bound.MethodApprox)
		})
	}
}

// BenchmarkFig4BoundVsTrees sweeps τ (Fig. 4).
func BenchmarkFig4BoundVsTrees(b *testing.B) {
	for tau := 1; tau <= 11; tau += 2 {
		cfg := synthetic.DefaultConfig()
		cfg.Trees = synthetic.FixedInt(tau)
		b.Run(fmt.Sprintf("exact/tau=%d", tau), func(b *testing.B) {
			benchBoundPoint(b, cfg, bound.MethodExact)
		})
		b.Run(fmt.Sprintf("approx/tau=%d", tau), func(b *testing.B) {
			benchBoundPoint(b, cfg, bound.MethodApprox)
		})
	}
}

// BenchmarkFig5BoundVsOdds sweeps the dependent discrimination odds
// (Fig. 5) with the independent odds fixed at 2.
func BenchmarkFig5BoundVsOdds(b *testing.B) {
	for _, odds := range []float64{1.1, 1.4, 1.7, 2.0} {
		cfg := synthetic.DefaultConfig()
		cfg.PIndepT = synthetic.Fixed(2.0 / 3.0)
		cfg.PDepT = synthetic.Fixed(synthetic.OddsToProb(odds))
		b.Run(fmt.Sprintf("exact/odds=%.1f", odds), func(b *testing.B) {
			benchBoundPoint(b, cfg, bound.MethodExact)
		})
		b.Run(fmt.Sprintf("approx/odds=%.1f", odds), func(b *testing.B) {
			benchBoundPoint(b, cfg, bound.MethodApprox)
		})
	}
}

// BenchmarkFig6BoundTime is Fig. 6 itself: ns/op of the exact bound blows
// up with n while the Gibbs approximation stays flat. One fixed dependency
// column per size keeps the measurement pure.
func BenchmarkFig6BoundTime(b *testing.B) {
	for n := 5; n <= 25; n += 5 {
		cfg := synthetic.DefaultConfig()
		cfg.Sources = n
		if cfg.Trees.Hi > n {
			cfg.Trees = synthetic.FixedInt((n + 1) / 2)
		}
		w, err := synthetic.Generate(cfg, randutil.New(1))
		if err != nil {
			b.Fatal(err)
		}
		col, err := bound.NewColumn(w.TrueParams, w.Dataset.DependencyColumn(0))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("exact/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bound.Exact(context.Background(), col, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("approx/n=%d", n), func(b *testing.B) {
			rng := randutil.New(2)
			for i := 0; i < b.N; i++ {
				if _, err := bound.ApproxContext(context.Background(), col, 2000, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchEstimatorPoint runs the three estimators on fresh worlds and reports
// their mean accuracies (the series Figs. 7-10 plot).
func benchEstimatorPoint(b *testing.B, cfg synthetic.Config) {
	b.Helper()
	accs := map[string]*stats.Series{}
	for i := 0; i < b.N; i++ {
		rng := randutil.New(int64(9000 + i))
		w, err := synthetic.Generate(cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		for _, alg := range []factfind.FactFinder{
			&core.EMExt{},
			&baselines.EM{},
			&baselines.EMSocial{},
		} {
			res, err := alg.RunContext(context.Background(), w.Dataset)
			if err != nil {
				b.Fatal(err)
			}
			cl, err := stats.Classify(res.Decisions(factfind.DefaultThreshold), w.Truth)
			if err != nil {
				b.Fatal(err)
			}
			if accs[alg.Name()] == nil {
				accs[alg.Name()] = &stats.Series{}
			}
			accs[alg.Name()].Add(cl.Accuracy)
		}
	}
	b.ReportMetric(accs["EM-Ext"].Mean(), "acc-EMExt")
	b.ReportMetric(accs["EM"].Mean(), "acc-EM")
	b.ReportMetric(accs["EM-Social"].Mean(), "acc-EMSocial")
}

// BenchmarkFig7EstimatorVsSources sweeps n from 20 to 50 (Fig. 7).
func BenchmarkFig7EstimatorVsSources(b *testing.B) {
	for n := 20; n <= 50; n += 10 {
		cfg := synthetic.EstimatorConfig()
		cfg.Sources = n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchEstimatorPoint(b, cfg) })
	}
}

// BenchmarkFig8EstimatorVsAssertions sweeps m at n=100 (Fig. 8).
func BenchmarkFig8EstimatorVsAssertions(b *testing.B) {
	for _, m := range []int{10, 40, 70, 100} {
		cfg := synthetic.EstimatorConfig()
		cfg.Sources = 100
		cfg.Assertions = m
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) { benchEstimatorPoint(b, cfg) })
	}
}

// BenchmarkFig9EstimatorVsTrees sweeps τ (Fig. 9).
func BenchmarkFig9EstimatorVsTrees(b *testing.B) {
	for tau := 1; tau <= 11; tau += 2 {
		cfg := synthetic.EstimatorConfig()
		cfg.Trees = synthetic.FixedInt(tau)
		b.Run(fmt.Sprintf("tau=%d", tau), func(b *testing.B) { benchEstimatorPoint(b, cfg) })
	}
}

// BenchmarkFig10EstimatorVsOdds sweeps the dependent odds (Fig. 10).
func BenchmarkFig10EstimatorVsOdds(b *testing.B) {
	for _, odds := range []float64{1.1, 1.4, 1.7, 2.0} {
		cfg := synthetic.EstimatorConfig()
		cfg.PIndepT = synthetic.Fixed(2.0 / 3.0)
		cfg.PDepT = synthetic.Fixed(synthetic.OddsToProb(odds))
		b.Run(fmt.Sprintf("odds=%.1f", odds), func(b *testing.B) { benchEstimatorPoint(b, cfg) })
	}
}

// BenchmarkTableIIIGenerate measures full-scale simulated dataset
// generation for every Table III scenario and reports the realized counts.
func BenchmarkTableIIIGenerate(b *testing.B) {
	for _, sc := range twittersim.Presets() {
		sc := sc
		b.Run(sc.Name, func(b *testing.B) {
			var sum twittersim.Summary
			for i := 0; i < b.N; i++ {
				w, err := twittersim.Generate(sc, randutil.New(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				sum = w.Summarize()
			}
			b.ReportMetric(float64(sum.TotalClaims), "claims")
			b.ReportMetric(float64(sum.OriginalClaims), "originals")
		})
	}
}

// BenchmarkFig11Empirical runs the Apollo pipeline end to end (clustering,
// dependency derivation, fact-finding, grading) per scenario at 1/8 scale,
// reporting EM-Ext's graded top-100 accuracy.
func BenchmarkFig11Empirical(b *testing.B) {
	for _, preset := range twittersim.Presets() {
		sc := twittersim.Small(preset.Name, 8)
		b.Run(preset.Name, func(b *testing.B) {
			var acc stats.Series
			for i := 0; i < b.N; i++ {
				w, err := twittersim.Generate(sc, randutil.New(int64(50+i)))
				if err != nil {
					b.Fatal(err)
				}
				msgs := make([]apollo.Message, len(w.Tweets))
				for k, t := range w.Tweets {
					msgs[k] = apollo.Message{Source: t.Source, Time: int64(t.ID), Text: t.Text}
				}
				out, err := apollo.Run(apollo.Input{
					NumSources: sc.Sources,
					Messages:   msgs,
					Graph:      w.Graph,
				}, &core.EMExt{}, apollo.Options{TopK: 100})
				if err != nil {
					b.Fatal(err)
				}
				labels, err := grader.Grade(out.MessageAssertion, w.Tweets, w.Kinds)
				if err != nil {
					b.Fatal(err)
				}
				score, err := grader.ScoreTopK(out.Ranked, labels)
				if err != nil {
					b.Fatal(err)
				}
				acc.Add(score.Accuracy())
			}
			b.ReportMetric(acc.Mean(), "top100-acc")
		})
	}
}
