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
	"io"
	"log"
	"os"

	"depsense"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A 1/5-scale Paris-Attack-like event: ~7.7k sources, ~4.7k assertions.
	scenario := depsense.SmallTwitterScenario("Paris Attack", 5)
	world, err := depsense.GenerateTwitter(scenario, depsense.NewRand(2015))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated stream: %+v\n\n", world.Summarize())

	msgs := make([]depsense.Message, len(world.Tweets))
	for i, t := range world.Tweets {
		msgs[i] = depsense.Message{Source: t.Source, Time: int64(t.ID), Text: t.Text}
	}
	input := depsense.PipelineInput{
		NumSources: scenario.Sources,
		Messages:   msgs,
		Graph:      world.Graph,
	}

	const topK = 100
	fmt.Fprintf(w, "top-%d graded accuracy, #True/(#True+#False+#Opinion):\n", topK)
	var best *depsense.PipelineOutput
	for _, alg := range depsense.Baselines() {
		out, err := depsense.RunPipeline(input, alg, depsense.PipelineOptions{TopK: topK})
		if err != nil {
			return fmt.Errorf("%s: %w", alg.Name(), err)
		}
		labels, err := depsense.Grade(out, world)
		if err != nil {
			return err
		}
		score, err := depsense.ScoreTopK(out.Ranked, labels)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-12s %.3f  (True=%d False=%d Opinion=%d)\n",
			alg.Name(), score.Accuracy(), score.True, score.False, score.Opinion)
		if alg.Name() == "EM-Ext" {
			best = out
		}
	}

	fmt.Fprintln(w, "\nEM-Ext's five most credible assertions:")
	for rank, c := range best.Ranked[:5] {
		fmt.Fprintf(w, "  %d. p=%.4f %q\n", rank+1, best.Result.Posterior[c], best.RepresentativeText[c])
	}
	return nil
}
