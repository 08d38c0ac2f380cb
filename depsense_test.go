package depsense

// End-to-end tests of the public facade: every consumer-facing entry point
// exercised the way README documents it.

import (
	"context"
	"testing"
)

func TestFacadeManualDataset(t *testing.T) {
	b := NewDatasetBuilder(3, 4)
	b.AddClaim(0, 0, false)
	b.AddClaim(1, 0, true)
	b.AddClaim(2, 1, false)
	b.MarkSilentDependent(1, 1)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 3 || ds.M() != 4 || ds.NumDependentClaims() != 1 {
		t.Fatalf("summary: %+v", ds.Summarize())
	}

	res, err := NewEMExt(EMOptions{}).RunContext(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posterior) != 4 || len(res.Ranking()) != 4 {
		t.Fatal("result shape wrong")
	}
}

func TestFacadeEventLog(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddFollow(0, 1); err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(g, []Event{
		{Source: 1, Assertion: 0, Time: 1},
		{Source: 0, Assertion: 0, Time: 2},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Dependent(0, 0) {
		t.Fatal("repeat not dependent")
	}
}

func TestFacadeBaselineLineup(t *testing.T) {
	algs := Baselines()
	if len(algs) != 7 || algs[0].Name() != "EM-Ext" {
		t.Fatalf("lineup: %d algorithms, first %q", len(algs), algs[0].Name())
	}
}

func TestFacadeSyntheticAndBound(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Sources = 10
	rng := NewRand(3)
	w, err := GenerateSynthetic(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ErrorBound(w.Dataset, w.TrueParams, BoundOptions{Method: BoundExact}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err <= 0 || res.Err >= 0.5 {
		t.Fatalf("bound = %v", res.Err)
	}
}

func TestFacadePipeline(t *testing.T) {
	scaled := SmallTwitterScenario("Kirkuk", 40)
	w, err := GenerateTwitter(scaled, NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]Message, len(w.Tweets))
	for i, tw := range w.Tweets {
		msgs[i] = Message{Source: tw.Source, Time: int64(tw.ID), Text: tw.Text}
	}
	out, err := RunPipeline(PipelineInput{
		NumSources: scaled.Sources,
		Messages:   msgs,
		Graph:      w.Graph,
	}, NewEMExt(EMOptions{}), PipelineOptions{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Ranked) != 10 {
		t.Fatalf("ranked %d", len(out.Ranked))
	}
}

func TestFacadeStreaming(t *testing.T) {
	est := NewStreamEstimator(StreamOptions{})
	if err := est.ObserveFollow(1, 0); err != nil {
		t.Fatal(err)
	}
	res, err := est.AddBatch([]Event{
		{Source: 0, Assertion: 0, Time: 1},
		{Source: 1, Assertion: 0, Time: 2},
		{Source: 2, Assertion: 1, Time: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posterior) != 2 {
		t.Fatalf("posterior length %d", len(res.Posterior))
	}
}
