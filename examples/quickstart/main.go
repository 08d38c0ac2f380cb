// Quickstart: build a source-claim matrix with a DatasetBuilder, run the
// dependency-aware EM-Ext estimator, and print per-assertion truth
// posteriors alongside the estimated source parameters.
//
// Three independent reporters (S0-S2) observe 40 events, half of which
// really happened; three followers (S3-S5) mostly repeat whatever S0 says —
// including its mistakes. A dependency-blind fact-finder over-counts those
// repeats; EM-Ext models them through the dependent channel.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"depsense"
)

const (
	numSources    = 6
	numAssertions = 40
	numTrue       = 20
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	rng := depsense.NewRand(7)
	truth := make([]bool, numAssertions)
	for j := 0; j < numTrue; j++ {
		truth[j] = true
	}
	rng.Shuffle(numAssertions, func(a, b int) { truth[a], truth[b] = truth[b], truth[a] })

	b := depsense.NewDatasetBuilder(numSources, numAssertions)

	// Independent reporters: claim true events often, false ones rarely.
	reporterTrueRate := [...]float64{0.8, 0.7, 0.6}
	reporterFalseRate := [...]float64{0.15, 0.25, 0.2}
	s0Claims := make([]bool, numAssertions)
	for i := 0; i < 3; i++ {
		for j := 0; j < numAssertions; j++ {
			p := reporterFalseRate[i]
			if truth[j] {
				p = reporterTrueRate[i]
			}
			if rng.Float64() < p {
				b.AddClaim(i, j, false)
				if i == 0 {
					s0Claims[j] = true
				}
			}
		}
	}
	// Followers of S0: repeat half of what S0 says, true or not. Pairs
	// where S0 claimed but the follower stayed silent are marked
	// silent-dependent — the follower saw the claim and let it pass.
	for i := 3; i < numSources; i++ {
		for j := 0; j < numAssertions; j++ {
			if !s0Claims[j] {
				continue
			}
			if rng.Float64() < 0.5 {
				b.AddClaim(i, j, true)
			} else {
				b.MarkSilentDependent(i, j)
			}
		}
	}

	ds, err := b.Build()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "dataset:", ds.Summarize())

	// An IterationHook on the run context observes the fit live: one call
	// per EM iteration with the current log-likelihood. The same context
	// would also carry a deadline or cancellation in a service setting.
	fmt.Fprintln(w, "\nEM-Ext progress:")
	ctx := depsense.WithIterationHook(context.Background(), func(it depsense.Iteration) {
		if it.N%5 == 0 || it.Done {
			fmt.Fprintf(w, "  iter %2d  log-likelihood=%.2f\n", it.N, it.LogLikelihood)
		}
	})
	res, err := depsense.NewEMExt(depsense.EMOptions{}).RunContext(ctx, ds)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nconverged=%v after %d iterations, log-likelihood=%.2f, ẑ=%.3f\n",
		res.Converged, res.Iterations, res.LogLikelihood, res.Params.Z)

	var correct, falsePos, falseNeg int
	for j, decided := range res.Decisions(0.5) {
		switch {
		case decided == truth[j]:
			correct++
		case decided:
			falsePos++
		default:
			falseNeg++
		}
	}
	fmt.Fprintf(w, "accuracy vs ground truth: %.1f%% (FP=%.2f FN=%.2f)\n",
		100*(float64(correct)/numAssertions), float64(falsePos)/numAssertions, float64(falseNeg)/numAssertions)

	fmt.Fprintln(w, "\nfirst ten assertion posteriors:")
	for j := 0; j < 10; j++ {
		fmt.Fprintf(w, "  C%-2d p=%.3f  truth=%-5v  (%d claims)\n",
			j, res.Posterior[j], truth[j], len(ds.Claimants(j)))
	}
	fmt.Fprintln(w, "\nmost credible assertions:", res.TopK(5))
	fmt.Fprintln(w, "\nestimated source channels (a/b independent, f/g dependent):")
	for i, s := range res.Params.Sources {
		fmt.Fprintf(w, "  S%d a=%.3f b=%.3f f=%.3f g=%.3f\n", i, s.A, s.B, s.F, s.G)
	}
	return nil
}
