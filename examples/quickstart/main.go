// Quickstart: build a source-claim matrix with the claims.Builder, run the
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
	"log"
	"time"

	"depsense/internal/claims"
	"depsense/internal/core"
	"depsense/internal/randutil"
	"depsense/internal/runctx"
	"depsense/internal/stats"
)

const (
	numSources    = 6
	numAssertions = 40
	numTrue       = 20
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := randutil.New(7)
	truth := make([]bool, numAssertions)
	for j := 0; j < numTrue; j++ {
		truth[j] = true
	}
	rng.Shuffle(numAssertions, func(a, b int) { truth[a], truth[b] = truth[b], truth[a] })

	b := claims.NewBuilder(numSources, numAssertions)

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
	fmt.Println("dataset:", ds.Summarize())

	// An IterationHook on the run context observes the fit live: one call
	// per EM iteration with the current log-likelihood. The same context
	// would also carry a deadline or cancellation in a service setting.
	fmt.Println("\nEM-Ext progress:")
	ctx := runctx.WithHook(context.Background(), func(it runctx.Iteration) {
		if it.N%5 == 0 || it.Done {
			fmt.Printf("  iter %2d  log-likelihood=%.2f  (%s)\n", it.N, it.LogLikelihood, it.Elapsed.Round(10*time.Microsecond))
		}
	})
	est := &core.EMExt{}
	res, err := est.RunContext(ctx, ds)
	if err != nil {
		return err
	}
	fmt.Printf("\nconverged=%v after %d iterations, log-likelihood=%.2f, ẑ=%.3f\n",
		res.Converged, res.Iterations, res.LogLikelihood, res.Params.Z)

	cl, err := stats.Classify(res.Decisions(0.5), truth)
	if err != nil {
		return err
	}
	fmt.Printf("accuracy vs ground truth: %.1f%% (FP=%.2f FN=%.2f)\n",
		100*cl.Accuracy, cl.FalsePosRate, cl.FalseNegRate)

	fmt.Println("\nfirst ten assertion posteriors:")
	for j := 0; j < 10; j++ {
		fmt.Printf("  C%-2d p=%.3f  truth=%-5v  (%d claims)\n",
			j, res.Posterior[j], truth[j], len(ds.Claimants(j)))
	}
	fmt.Println("\nmost credible assertions:", res.TopK(5))
	fmt.Println("\nestimated source channels (a/b independent, f/g dependent):")
	for i, s := range res.Params.Sources {
		fmt.Printf("  S%d a=%.3f b=%.3f f=%.3f g=%.3f\n", i, s.A, s.B, s.F, s.G)
	}
	return nil
}
