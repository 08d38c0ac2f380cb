package apollo

import (
	"context"
	"errors"
	"testing"
	"time"

	"depsense/internal/baselines"
	"depsense/internal/claims"
	"depsense/internal/core"
	"depsense/internal/depgraph"
	"depsense/internal/factfind"
	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

func smallInput() Input {
	g := depgraph.NewGraph(4)
	_ = g.AddFollow(1, 0)
	return Input{
		NumSources: 4,
		Graph:      g,
		Messages: []Message{
			{Source: 0, Time: 1, Text: "witness2 reported fire near plaza3 n42 #demo"},
			{Source: 1, Time: 2, Text: "rt @user0: witness2 reported fire near plaza3 n42 #demo"},
			{Source: 2, Time: 3, Text: "official7 denied outage near campus9 n17 #demo"},
			{Source: 3, Time: 4, Text: "official7 denied outage near campus9 n17 #demo update"},
		},
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	out, err := Run(smallInput(), &baselines.Voting{}, Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Two assertions should be extracted.
	if out.Dataset.M() != 2 {
		t.Fatalf("extracted %d assertions", out.Dataset.M())
	}
	// The retweet must be marked dependent (source 1 follows source 0 and
	// claimed the same cluster later).
	c0 := out.MessageAssertion[0]
	if out.MessageAssertion[1] != c0 {
		t.Fatal("retweet clustered separately")
	}
	if !out.Dataset.Dependent(1, c0) {
		t.Fatal("retweet not dependent")
	}
	if out.Dataset.Dependent(0, c0) {
		t.Fatal("original marked dependent")
	}
	// Message 3 repeats message 2's assertion but has no follow edge.
	c2 := out.MessageAssertion[2]
	if out.MessageAssertion[3] != c2 {
		t.Fatal("duplicate report clustered separately")
	}
	if out.Dataset.Dependent(3, c2) {
		t.Fatal("independent duplicate marked dependent")
	}
	if len(out.Ranked) != 2 {
		t.Fatalf("ranked = %v", out.Ranked)
	}
	if out.RepresentativeText[c0] != smallInput().Messages[0].Text {
		t.Fatalf("representative = %q", out.RepresentativeText[c0])
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := Run(Input{}, &baselines.Voting{}, Options{}); !errors.Is(err, ErrNoMessages) {
		t.Fatalf("want ErrNoMessages, got %v", err)
	}
	in := smallInput()
	if _, err := Run(in, nil, Options{}); !errors.Is(err, ErrNilFinder) {
		t.Fatalf("want ErrNilFinder, got %v", err)
	}
	in.Graph = depgraph.NewGraph(2)
	if _, err := Run(in, &baselines.Voting{}, Options{}); !errors.Is(err, ErrGraphSize) {
		t.Fatalf("want ErrGraphSize, got %v", err)
	}
	in = smallInput()
	in.Messages[0].Source = 99
	if _, err := Run(in, &baselines.Voting{}, Options{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestPipelineNilGraphDefaultsToNoEdges(t *testing.T) {
	in := smallInput()
	in.Graph = nil
	out, err := Run(in, &baselines.Voting{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Dataset.NumDependentClaims() != 0 {
		t.Fatal("dependencies without a graph")
	}
}

func TestPipelineWithSimulatedStream(t *testing.T) {
	sc := twittersim.Small("Ukraine", 20)
	w, err := twittersim.Generate(sc, randutil.New(3))
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]Message, len(w.Tweets))
	for i, tw := range w.Tweets {
		msgs[i] = Message{Source: tw.Source, Time: int64(tw.ID), Text: tw.Text}
	}
	in := Input{NumSources: sc.Sources, Messages: msgs, Graph: w.Graph}

	for _, alg := range []factfind.FactFinder{
		&core.EMExt{},
		&baselines.Voting{},
	} {
		out, err := Run(in, alg, Options{TopK: 25})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if out.Dataset.N() != sc.Sources {
			t.Fatalf("%s: dataset sources %d", alg.Name(), out.Dataset.N())
		}
		// Clustering should land in the right ballpark of the true
		// assertion count (fragmentation < 35%).
		m := out.Dataset.M()
		if m < len(w.Kinds) || m > len(w.Kinds)*135/100 {
			t.Fatalf("%s: %d clusters for %d assertions", alg.Name(), m, len(w.Kinds))
		}
		if len(out.Ranked) != 25 {
			t.Fatalf("%s: ranked %d", alg.Name(), len(out.Ranked))
		}
		// Retweet-heavy streams must surface dependent claims.
		if out.Dataset.NumDependentClaims() == 0 {
			t.Fatalf("%s: no dependent claims derived", alg.Name())
		}
	}
}

// failingFinder exercises error propagation from the fact-finding stage.
type failingFinder struct{}

func (failingFinder) Name() string { return "failing" }
func (failingFinder) RunContext(context.Context, *claims.Dataset) (*factfind.Result, error) {
	return nil, errors.New("boom")
}

func TestPipelinePropagatesFinderErrors(t *testing.T) {
	if _, err := Run(smallInput(), failingFinder{}, Options{}); err == nil {
		t.Fatal("finder error swallowed")
	}
}

// TestStageTimings: the injected clock drives per-stage timing, so each of
// the five pipeline stages reports exactly one clock step, in execution
// order.
func TestStageTimings(t *testing.T) {
	now := time.Unix(0, 0)
	step := 100 * time.Millisecond
	out, err := Run(smallInput(), &baselines.Voting{}, Options{
		TopK: 10,
		Clock: func() time.Time {
			now = now.Add(step)
			return now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ingest", "cluster", "build", "fit", "rank"}
	if len(out.Stages) != len(want) {
		t.Fatalf("stages = %+v, want %v", out.Stages, want)
	}
	for i, st := range out.Stages {
		if st.Stage != want[i] {
			t.Fatalf("stage %d = %q, want %q", i, st.Stage, want[i])
		}
		if st.Duration != step {
			t.Fatalf("stage %q duration = %v, want %v", st.Stage, st.Duration, step)
		}
	}
}

// TestStageTimingsDefaultClock: without an injected clock the pipeline
// still reports all five stages with non-negative durations.
func TestStageTimingsDefaultClock(t *testing.T) {
	out, err := Run(smallInput(), &baselines.Voting{}, Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Stages) != 5 {
		t.Fatalf("stages = %+v", out.Stages)
	}
	for _, st := range out.Stages {
		if st.Duration < 0 {
			t.Fatalf("negative stage duration: %+v", st)
		}
	}
}
