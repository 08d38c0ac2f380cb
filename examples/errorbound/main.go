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
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"depsense"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Table I of the paper: P(SC_j|C_j=1) and P(SC_j|C_j=0) for the eight claim
// patterns of its three-source walk-through, at prior z = 0.5.
var (
	tableIP1 = []float64{
		0.18546216, 0.17606773, 0.00033244, 0.01971855,
		0.24427898, 0.19063986, 0.02321803, 0.16028224,
	}
	tableIP0 = []float64{
		0.05851677, 0.05300123, 0.12803859, 0.16032756,
		0.14231588, 0.08222352, 0.18716734, 0.18840910,
	}
)

const tableIPaperErr = 0.26980433

func run(w io.Writer) error {
	// 1. Table I: the paper's walk-through example.
	t1, err := depsense.PatternTableBound(tableIP1, tableIP0, 0.5)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table I walk-through: Err = %.8f (paper reports %.8f)\n\n",
		t1.Err, tableIPaperErr)

	// 2. Exact enumeration vs Gibbs approximation on one synthetic world.
	cfg := depsense.DefaultSyntheticConfig() // n=20: exact = 2^20 patterns/column
	world, err := depsense.GenerateSynthetic(cfg, depsense.NewRand(99))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "synthetic world:", world.Dataset.Summarize())
	exact, err := depsense.ErrorBound(world.Dataset, world.TrueParams,
		depsense.BoundOptions{Method: depsense.BoundExact, MaxColumns: 10}, depsense.NewRand(5))
	if err != nil {
		return err
	}
	approx, err := depsense.ErrorBound(world.Dataset, world.TrueParams,
		depsense.BoundOptions{Method: depsense.BoundApprox, MaxColumns: 10}, depsense.NewRand(5))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "exact bound:  Err=%.4f (FP=%.4f FN=%.4f)\n", exact.Err, exact.FalsePos, exact.FalseNeg)
	fmt.Fprintf(w, "approx bound: Err=%.4f (FP=%.4f FN=%.4f), |diff|=%.4f\n\n",
		approx.Err, approx.FalsePos, approx.FalseNeg, math.Abs(exact.Err-approx.Err))

	// 3. EM-Ext vs the bound as the number of assertions grows.
	const runs = 10
	fmt.Fprintln(w, "EM-Ext accuracy vs the optimal bound (n=100, 10 runs each):")
	for _, m := range []int{20, 50, 100, 200} {
		c := depsense.DefaultSyntheticConfig()
		c.Sources = 100
		c.Assertions = m
		var acc, opt float64
		for r := 0; r < runs; r++ {
			sw, err := depsense.GenerateSynthetic(c, depsense.NewRand(int64(1000+r)))
			if err != nil {
				return err
			}
			res, err := depsense.NewEMExt(depsense.EMOptions{}).RunContext(context.Background(), sw.Dataset)
			if err != nil {
				return err
			}
			correct := 0
			for j, decided := range res.Decisions(0.5) {
				if decided == sw.Truth[j] {
					correct++
				}
			}
			acc += float64(correct) / float64(m)
			br, err := depsense.ErrorBound(sw.Dataset, sw.TrueParams, depsense.BoundOptions{
				Method:      depsense.BoundApprox,
				MaxColumns:  8,
				GibbsSweeps: 2000,
			}, depsense.NewRand(int64(r)))
			if err != nil {
				return err
			}
			opt += 1 - br.Err
		}
		acc, opt = acc/runs, opt/runs
		fmt.Fprintf(w, "  m=%3d  EM-Ext=%.3f  Optimal=%.3f  gap=%.3f\n", m, acc, opt, opt-acc)
	}
	return nil
}
