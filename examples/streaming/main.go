// Streaming: incremental fact-finding over a tweet stream arriving in
// batches, the extension direction of the paper's reference [21]. A
// simulated breaking-news stream is replayed hour by hour; after each batch
// the estimator refits from a warm start and we watch the top assertions
// and the rumor posteriors evolve as evidence accumulates.
//
// The replay runs under a cancellable run-context (Ctrl-C, or the demo's
// own mid-stream cancellation of the final batch): a cancelled refit
// returns within one EM iteration, the estimator keeps the last completed
// fit, and the ranking below is served from that state — graceful
// degradation rather than a torn estimate.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"depsense"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, w io.Writer) error {
	sc := depsense.SmallTwitterScenario("Ukraine", 10)
	world, err := depsense.GenerateTwitter(sc, depsense.NewRand(99))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stream: %+v\n\n", world.Summarize())

	est := depsense.NewStreamEstimator(depsense.StreamOptions{})
	// The follow graph is observed up front (it comes from the account
	// relationships, not the claim stream).
	for i := 0; i < world.Graph.N(); i++ {
		for _, anc := range world.Graph.Ancestors(i) {
			if err := est.ObserveFollow(i, anc); err != nil {
				return err
			}
		}
	}

	// Replay the stream in six batches ("hours"). Tweets already carry
	// ground-truth assertion ids here; a production deployment would
	// cluster text first (see examples/breakingnews).
	events := world.Events()
	const batches = 6
	per := (len(events) + batches - 1) / batches
	for b := 0; b < batches; b++ {
		lo, hi := b*per, min((b+1)*per, len(events))
		if lo >= hi {
			break
		}
		batchCtx := ctx
		if b == batches-1 {
			// Demonstrate graceful mid-stream cancellation: cancel the
			// final batch's refit from its own iteration hook, as if the
			// operator hit Ctrl-C while hour 6 was fitting.
			var cancel context.CancelFunc
			batchCtx, cancel = context.WithCancel(ctx)
			defer cancel()
			batchCtx = depsense.WithIterationHook(batchCtx, func(it depsense.Iteration) {
				if it.N >= 2 {
					cancel()
				}
			})
		}
		res, err := est.AddBatchContext(batchCtx, events[lo:hi])
		if reason := depsense.StopReason(err); reason != "" {
			partial := 0
			if res != nil {
				partial = res.Iterations
			}
			fmt.Fprintf(w, "hour %d: refit %s after %d iterations — serving the hour-%d estimate instead\n",
				b+1, reason, partial, b)
			continue
		}
		if err != nil {
			return err
		}
		st := est.Stats()
		correct, graded := 0, 0
		for j, p := range res.Posterior {
			if j >= len(world.Kinds) || world.Kinds[j] == depsense.KindOpinion {
				continue
			}
			graded++
			if (p > 0.5) == (world.Kinds[j] == depsense.KindTrue) {
				correct++
			}
		}
		fmt.Fprintf(w, "hour %d: %4d claims, %4d assertions | EM iters=%2d | factual accuracy %.1f%%\n",
			b+1, st.Claims, st.Assertions, res.Iterations, 100*float64(correct)/float64(graded))
	}

	// Final ranking, graded against ground truth.
	res, err := est.Result()
	if err != nil {
		return err
	}
	labels := world.Kinds
	top := res.TopK(10)
	fmt.Fprintln(w, "\nfinal top 10:")
	for rank, j := range top {
		label := "?"
		if j < len(labels) {
			label = labels[j].String()
		}
		fmt.Fprintf(w, "  %2d. p=%.3f [%s] %v\n", rank+1, res.Posterior[j], label, world.AssertionTokens[j])
	}
	score, err := depsense.ScoreTopK(top, labels)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "top-10 accuracy: %.2f\n", score.Accuracy())
	return nil
}
