package depsense

// Ablation benchmarks for the design choices DESIGN.md calls out: EM-Ext's
// dependent-channel mode, M-step smoothing, the Gibbs chain length behind
// the approximate bound, and the Apollo clustering threshold. Each reports its quality metric via
// b.ReportMetric so a -bench run doubles as an ablation table.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"depsense/internal/apollo"
	"depsense/internal/bound"
	"depsense/internal/cluster"
	"depsense/internal/core"
	"depsense/internal/grader"
	"depsense/internal/randutil"
	"depsense/internal/stats"
	"depsense/internal/synthetic"
	"depsense/internal/twittersim"
)

// BenchmarkAblationDepMode compares EM-Ext's joint and plug-in strategies
// on dense simulation data (joint should win) — the regime switch the
// estimator performs automatically.
func BenchmarkAblationDepMode(b *testing.B) {
	cfg := synthetic.EstimatorConfig()
	cfg.Sources = 100
	cfg.Assertions = 100
	for _, mode := range []struct {
		name string
		mode core.DepMode
	}{{"joint", core.DepModeJoint}, {"plugin", core.DepModePlugin}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var acc stats.Series
			for i := 0; i < b.N; i++ {
				w, err := synthetic.Generate(cfg, randutil.New(int64(300+i)))
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.RunCtx(context.Background(), w.Dataset, core.VariantExt, core.Options{
					DepMode: mode.mode,
				})
				if err != nil {
					b.Fatal(err)
				}
				cl, err := stats.Classify(res.Decisions(0.5), w.Truth)
				if err != nil {
					b.Fatal(err)
				}
				acc.Add(cl.Accuracy)
			}
			b.ReportMetric(acc.Mean(), "acc")
		})
	}
}

// BenchmarkAblationSmoothing sweeps the M-step's empirical-Bayes
// pseudo-count for the independent channel (dependent channel fixed at its
// default).
func BenchmarkAblationSmoothing(b *testing.B) {
	cfg := synthetic.EstimatorConfig()
	for _, smooth := range []float64{-1, 1, 2, 8, 32} {
		smooth := smooth
		name := fmt.Sprintf("s=%g", smooth)
		if smooth < 0 {
			name = "s=off"
		}
		b.Run(name, func(b *testing.B) {
			var acc stats.Series
			for i := 0; i < b.N; i++ {
				w, err := synthetic.Generate(cfg, randutil.New(int64(400+i)))
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.RunCtx(context.Background(), w.Dataset, core.VariantExt, core.Options{
					Smoothing: smooth,
				})
				if err != nil {
					b.Fatal(err)
				}
				cl, err := stats.Classify(res.Decisions(0.5), w.Truth)
				if err != nil {
					b.Fatal(err)
				}
				acc.Add(cl.Accuracy)
			}
			b.ReportMetric(acc.Mean(), "acc")
		})
	}
}

// BenchmarkAblationGibbsSweeps sweeps the approximate bound's sweep budget
// against exact enumeration, reporting the mean absolute error. Each budget
// runs under the chain's stop rule, so a budget above the sweeps the chain
// needs to settle measures the same chain as a smaller one.
func BenchmarkAblationGibbsSweeps(b *testing.B) {
	cfg := synthetic.DefaultConfig() // n = 20
	w, err := synthetic.Generate(cfg, randutil.New(77))
	if err != nil {
		b.Fatal(err)
	}
	col, err := bound.NewColumn(w.TrueParams, w.Dataset.DependencyColumn(0))
	if err != nil {
		b.Fatal(err)
	}
	exact, err := bound.Exact(context.Background(), col, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, sweeps := range []int{100, 500, 2000, 10000, 40000} {
		sweeps := sweeps
		b.Run(fmt.Sprintf("sweeps=%d", sweeps), func(b *testing.B) {
			rng := randutil.New(7)
			var diff stats.Series
			for i := 0; i < b.N; i++ {
				res, err := bound.ApproxContext(context.Background(), col, sweeps, rng)
				if err != nil {
					b.Fatal(err)
				}
				diff.Add(math.Abs(res.Err - exact.Err))
			}
			b.ReportMetric(diff.Mean(), "abs-err")
		})
	}
}

// BenchmarkAblationClusterThreshold sweeps the Apollo clustering threshold
// and reports cluster count inflation and EM-Ext's graded accuracy.
func BenchmarkAblationClusterThreshold(b *testing.B) {
	sc := twittersim.Small("Ukraine", 8)
	for _, th := range []float64{0.3, 0.4, 0.5, 0.6, 0.7} {
		th := th
		b.Run(fmt.Sprintf("jaccard=%.1f", th), func(b *testing.B) {
			var acc, clusters stats.Series
			for i := 0; i < b.N; i++ {
				w, err := twittersim.Generate(sc, randutil.New(int64(600+i)))
				if err != nil {
					b.Fatal(err)
				}
				msgs := make([]apollo.Message, len(w.Tweets))
				for k, t := range w.Tweets {
					msgs[k] = apollo.Message{Source: t.Source, Time: int64(t.ID), Text: t.Text}
				}
				out, err := apollo.Run(apollo.Input{
					NumSources: sc.Sources, Messages: msgs, Graph: w.Graph,
				}, &core.EMExt{}, apollo.Options{
					TopK:      100,
					Clusterer: &cluster.Leader{Threshold: th},
				})
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
				clusters.Add(float64(out.Dataset.M()) / float64(len(w.Kinds)))
			}
			b.ReportMetric(acc.Mean(), "top100-acc")
			b.ReportMetric(clusters.Mean(), "cluster-ratio")
		})
	}
}
