// Breakingnews: the full empirical pipeline on a simulated breaking-news
// event. A Table III-style Twitter stream (reduced scale) flows through the
// Apollo pipeline — tweet clustering, dependency derivation, fact-finding —
// with all seven algorithms of Fig. 11, and the simulated graders score
// each algorithm's top-ranked assertions.
//
//	go run ./examples/breakingnews
package main

import (
	"fmt"
	"log"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/grader"
	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 1/5-scale Paris-Attack-like event: ~7.7k sources, ~4.7k assertions.
	scenario := twittersim.Small("Paris Attack", 5)
	world, err := twittersim.Generate(scenario, randutil.New(2015))
	if err != nil {
		return err
	}
	fmt.Printf("simulated stream: %+v\n\n", world.Summarize())

	msgs := make([]apollo.Message, len(world.Tweets))
	for i, t := range world.Tweets {
		msgs[i] = apollo.Message{Source: t.Source, Time: int64(t.ID), Text: t.Text}
	}
	input := apollo.Input{
		NumSources: scenario.Sources,
		Messages:   msgs,
		Graph:      world.Graph,
	}

	const topK = 100
	fmt.Printf("top-%d graded accuracy, #True/(#True+#False+#Opinion):\n", topK)
	var best *apollo.Output
	for _, alg := range baselines.All() {
		out, err := apollo.Run(input, alg, apollo.Options{TopK: topK})
		if err != nil {
			return fmt.Errorf("%s: %w", alg.Name(), err)
		}
		labels, err := grader.Grade(out.MessageAssertion, world.Tweets, world.Kinds)
		if err != nil {
			return err
		}
		score, err := grader.ScoreTopK(out.Ranked, labels)
		if err != nil {
			return err
		}
		fmt.Printf("  %-12s %.3f  (True=%d False=%d Opinion=%d)\n",
			alg.Name(), score.Accuracy(), score.True, score.False, score.Opinion)
		if alg.Name() == "EM-Ext" {
			best = out
		}
	}

	fmt.Println("\nEM-Ext's five most credible assertions:")
	for rank, c := range best.Ranked[:5] {
		fmt.Printf("  %d. p=%.4f %q\n", rank+1, best.Result.Posterior[c], best.RepresentativeText[c])
	}
	return nil
}
