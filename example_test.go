package depsense_test

// Executable documentation for the public facade: each Example compiles and
// runs under `go test`, and its output is verified against the comment.

import (
	"context"
	"fmt"

	"depsense"
)

// ExampleNewDatasetBuilder shows the core workflow: build a source-claim
// matrix by hand and run the dependency-aware estimator.
func ExampleNewDatasetBuilder() {
	// Three sources, two assertions. Source 2 repeats source 0's claim.
	b := depsense.NewDatasetBuilder(3, 2)
	b.AddClaim(0, 0, false)
	b.AddClaim(1, 1, false)
	b.AddClaim(2, 0, true) // dependent repeat of assertion 0
	ds, err := b.Build()
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	fmt.Println(ds.Summarize())
	// Output:
	// sources=3 assertions=2 claims=3 (original=2 dependent=1) silent-dependent=0
}

// ExampleBuildDataset derives dependency indicators from a timestamped
// claim log, reproducing the paper's Figure 1 semantics: a claim is
// dependent iff a followed source asserted the same thing earlier.
func ExampleBuildDataset() {
	g := depsense.NewGraph(2)
	_ = g.AddFollow(1, 0) // source 1 follows source 0
	ds, err := depsense.BuildDataset(g, []depsense.Event{
		{Source: 0, Assertion: 0, Time: 1},
		{Source: 1, Assertion: 0, Time: 2}, // repeat after the followee
	}, 1)
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	fmt.Println("claim by follower dependent:", ds.Dependent(1, 0))
	fmt.Println("claim by followee dependent:", ds.Dependent(0, 0))
	// Output:
	// claim by follower dependent: true
	// claim by followee dependent: false
}

// ExampleNewEMExt runs the full estimator on a synthetic world and reports
// how it ranks assertions.
func ExampleNewEMExt() {
	cfg := depsense.DefaultSyntheticConfig()
	cfg.Sources = 10
	world, err := depsense.GenerateSynthetic(cfg, depsense.NewRand(7))
	if err != nil {
		fmt.Println("generate:", err)
		return
	}
	res, err := depsense.NewEMExt(depsense.EMOptions{}).RunContext(context.Background(), world.Dataset)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Println("posteriors:", len(res.Posterior))
	fmt.Println("top-3 credible:", res.TopK(3))
	// Output:
	// posteriors: 50
	// top-3 credible: [43 17 25]
}

// ExampleErrorBound computes the fundamental error bound for a tiny model:
// one perfectly uninformative source leaves exactly the prior error.
func ExampleErrorBound() {
	b := depsense.NewDatasetBuilder(1, 1)
	b.AddClaim(0, 0, false)
	ds, _ := b.Build()

	p := depsense.NewParams(1, 0.3)
	p.Sources[0] = depsense.SourceParams{A: 0.5, B: 0.5, F: 0.5, G: 0.5}
	res, err := depsense.ErrorBound(ds, p, depsense.BoundOptions{Method: depsense.BoundExact}, depsense.NewRand(1))
	if err != nil {
		fmt.Println("bound:", err)
		return
	}
	fmt.Printf("Err = %.2f\n", res.Err)
	// Output:
	// Err = 0.30
}

// ExampleScoreTopK grades a ranked cut-off the way the paper's evaluation
// does (Section V-C): opinions count against the ranking, like rumours.
func ExampleScoreTopK() {
	labels := []depsense.Kind{depsense.KindTrue, depsense.KindOpinion, depsense.KindTrue, depsense.KindFalse}
	score, err := depsense.ScoreTopK([]int{2, 0, 1}, labels)
	if err != nil {
		fmt.Println("score:", err)
		return
	}
	fmt.Printf("%+v accuracy=%.3f\n", score, score.Accuracy())
	// Output:
	// {True:2 False:0 Opinion:1} accuracy=0.667
}
