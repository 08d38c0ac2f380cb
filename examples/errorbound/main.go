// Errorbound: the fundamental error bound of Section III, three ways.
// First the paper's Table I walk-through (expected Err = 26.98%), then an
// exact-vs-Gibbs comparison on a synthetic world (the Figs. 3-5 setup), and
// finally the point of the whole exercise: how close the practical EM-Ext
// estimator gets to the optimal-estimator bound as data grows (Fig. 8's
// message).
//
//	go run ./examples/errorbound
package main

import (
	"fmt"
	"log"

	"depsense/internal/bound"
	"depsense/internal/core"
	"depsense/internal/eval"
	"depsense/internal/randutil"
	"depsense/internal/stats"
	"depsense/internal/synthetic"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Table I: the paper's walk-through example.
	t1, err := eval.TableI()
	if err != nil {
		return err
	}
	fmt.Printf("Table I walk-through: Err = %.8f (paper reports %.8f)\n\n",
		t1.Result.Err, t1.PaperErr)

	// 2. Exact enumeration vs Gibbs approximation on one synthetic world.
	cfg := synthetic.DefaultConfig() // n=20: exact = 2^20 patterns/column
	rng := randutil.New(99)
	world, err := synthetic.Generate(cfg, rng)
	if err != nil {
		return err
	}
	fmt.Println("synthetic world:", world.Dataset.Summarize())
	exact, err := bound.ForDataset(world.Dataset, world.TrueParams,
		bound.DatasetOptions{Method: bound.MethodExact, MaxColumns: 10}, randutil.New(5))
	if err != nil {
		return err
	}
	approx, err := bound.ForDataset(world.Dataset, world.TrueParams,
		bound.DatasetOptions{Method: bound.MethodApprox, MaxColumns: 10}, randutil.New(5))
	if err != nil {
		return err
	}
	fmt.Printf("exact bound:  Err=%.4f (FP=%.4f FN=%.4f)\n", exact.Err, exact.FalsePos, exact.FalseNeg)
	fmt.Printf("approx bound: Err=%.4f (FP=%.4f FN=%.4f), |diff|=%.4f\n\n",
		approx.Err, approx.FalsePos, approx.FalseNeg, abs(exact.Err-approx.Err))

	// 3. EM-Ext vs the bound as the number of assertions grows.
	fmt.Println("EM-Ext accuracy vs the optimal bound (n=100, 10 runs each):")
	for _, m := range []int{20, 50, 100, 200} {
		c := synthetic.EstimatorConfig()
		c.Sources = 100
		c.Assertions = m
		var acc, opt stats.Series
		for r := 0; r < 10; r++ {
			w, err := synthetic.Generate(c, randutil.New(int64(1000+r)))
			if err != nil {
				return err
			}
			res, err := (&core.EMExt{}).Run(w.Dataset)
			if err != nil {
				return err
			}
			cl, err := stats.Classify(res.Decisions(0.5), w.Truth)
			if err != nil {
				return err
			}
			acc.Add(cl.Accuracy)
			br, err := bound.ForDataset(w.Dataset, w.TrueParams, bound.DatasetOptions{
				Method:     bound.MethodApprox,
				MaxColumns: 8,
				Approx:     bound.ApproxOptions{MaxSweeps: 2000},
			}, randutil.New(int64(r)))
			if err != nil {
				return err
			}
			opt.Add(1 - br.Err)
		}
		fmt.Printf("  m=%3d  EM-Ext=%.3f  Optimal=%.3f  gap=%.3f\n",
			m, acc.Mean(), opt.Mean(), opt.Mean()-acc.Mean())
	}
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
