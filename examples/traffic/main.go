// Traffic: the running example of Section II-A (Figure 1). John follows
// Sally but not Heather; all three tweet about congested streets. The
// example builds the timestamped claim log, derives the source-claim matrix
// and dependency indicators exactly as the paper's Figure 1 does, and runs
// EM-Ext over a larger simulated commute season built on the same follow
// graph.
//
//	go run ./examples/traffic
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
	john = iota
	sally
	heather
	numCommuters
)

var names = [...]string{"John", "Sally", "Heather"}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	graph := depsense.NewGraph(numCommuters)
	if err := graph.AddFollow(john, sally); err != nil { // John follows Sally
		return err
	}

	// The morning of Figure 1: two assertions, four tweets.
	const (
		mainStreet    = 0 // "Main Street, Urbana, IL is congested"
		universityAve = 1 // "University Ave., Urbana, IL is congested"
	)
	events := []depsense.Event{
		{Source: sally, Assertion: mainStreet, Time: 1},
		{Source: heather, Assertion: universityAve, Time: 1},
		{Source: john, Assertion: mainStreet, Time: 2},    // repeat of Sally: dependent
		{Source: john, Assertion: universityAve, Time: 3}, // John doesn't follow Heather: independent
	}
	ds, err := depsense.BuildDataset(graph, events, 2)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1 dependency indicators:")
	for _, e := range events {
		fmt.Fprintf(w, "  %-8s asserts C%d at t%d  -> D=%v\n",
			names[e.Source], e.Assertion+1, e.Time, ds.Dependent(e.Source, e.Assertion))
	}

	// A full commute season on the same follow graph: 120 street-condition
	// assertions (60 genuinely congested), with Sally reliable, Heather
	// very reliable, and John mostly repeating whatever Sally says.
	const (
		numAssertions = 120
		numTrue       = 60
	)
	rng := depsense.NewRand(7)
	congested := make([]bool, numAssertions)
	for j := 0; j < numTrue; j++ {
		congested[j] = true
	}
	rng.Shuffle(numAssertions, func(a, b int) {
		congested[a], congested[b] = congested[b], congested[a]
	})

	var season []depsense.Event
	now := int64(0)
	claim := func(src, assertion int) {
		now++
		season = append(season, depsense.Event{Source: src, Assertion: assertion, Time: now})
	}
	for j := 0; j < numAssertions; j++ {
		// Sally: reports congested streets 70% of the time, clear ones 15%.
		sallyClaimed := false
		if congested[j] && rng.Float64() < 0.7 || !congested[j] && rng.Float64() < 0.15 {
			claim(sally, j)
			sallyClaimed = true
		}
		// Heather: 80% / 5%.
		if congested[j] && rng.Float64() < 0.8 || !congested[j] && rng.Float64() < 0.05 {
			claim(heather, j)
		}
		// John: repeats Sally 60% of the time regardless of the street,
		// and occasionally reports independently (40% / 10%).
		switch {
		case sallyClaimed && rng.Float64() < 0.6:
			claim(john, j)
		case congested[j] && rng.Float64() < 0.4:
			claim(john, j)
		case !congested[j] && rng.Float64() < 0.1:
			claim(john, j)
		}
	}
	seasonDS, err := depsense.BuildDataset(graph, season, numAssertions)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\ncommute season:", seasonDS.Summarize())

	res, err := depsense.NewEMExt(depsense.EMOptions{}).RunContext(context.Background(), seasonDS)
	if err != nil {
		return err
	}
	correct := 0
	for j, p := range res.Posterior {
		if (p > 0.5) == congested[j] {
			correct++
		}
	}
	fmt.Fprintf(w, "EM-Ext accuracy over the season: %.1f%% (%d/%d assertions)\n",
		100*float64(correct)/numAssertions, correct, numAssertions)
	for i, s := range res.Params.Sources {
		fmt.Fprintf(w, "  %-8s a=%.2f b=%.2f f=%.2f g=%.2f\n", names[i], s.A, s.B, s.F, s.G)
	}
	return nil
}
