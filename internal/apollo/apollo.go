// Package apollo is the end-to-end fact-finding pipeline modeled on the
// Apollo tool the paper integrates its estimator into: ingest a raw tweet
// stream, cluster near-duplicate tweets into assertions, derive the
// source-claim matrix and dependency indicators from the follow graph and
// claim timing, run a fact-finder, and rank assertions by credibility.
package apollo

import (
	"context"
	"errors"
	"fmt"
	"time"

	"depsense/internal/claims"
	"depsense/internal/cluster"
	"depsense/internal/depgraph"
	"depsense/internal/factfind"
	"depsense/internal/runctx"
)

// Message is one raw input item (a tweet).
type Message struct {
	// Source is the author id in [0, NumSources).
	Source int
	// Time orders messages; only relative order matters.
	Time int64
	// Text is the message body; assertions are extracted from it.
	Text string
}

// Input is a complete pipeline input.
type Input struct {
	// NumSources bounds the source id space.
	NumSources int
	// Messages is the raw stream.
	Messages []Message
	// Graph is the follow graph among sources (who can see whom). The
	// pipeline treats it as given; in practice it is constructed from
	// retweet behaviour.
	Graph *depgraph.Graph
}

// Options tunes the pipeline.
type Options struct {
	// Clusterer groups tweets into assertions; nil selects a
	// cluster.Leader with default settings.
	Clusterer cluster.Clusterer
	// TopK is the size of the ranked output (default 100, the paper's
	// evaluation cut-off).
	TopK int
	// Clock supplies the timestamps behind Output.Stages; nil means the
	// wall clock. Injected (rather than read directly) so pipeline timing
	// stays testable and the package honors the repository's clocked-zone
	// lint contract.
	Clock func() time.Time
}

// StageTiming is the measured duration of one pipeline stage.
type StageTiming struct {
	// Stage is the stage name: "ingest" (tokenization), "cluster"
	// (assertion extraction), "build" (source-claim matrix + dependency
	// indicators), "fit" (fact-finding), or "rank".
	Stage string
	// Duration is the stage's wall-clock (or injected-clock) cost.
	Duration time.Duration
}

// Output is the pipeline result.
type Output struct {
	// Dataset is the derived source-claim matrix with dependency
	// indicators; assertion j corresponds to cluster j.
	Dataset *claims.Dataset
	// MessageAssertion[i] is the assertion (cluster) id of message i.
	MessageAssertion []int
	// RepresentativeText[j] is the founding message's text for assertion j.
	RepresentativeText []string
	// Result is the fact-finder's scoring.
	Result *factfind.Result
	// Ranked is the TopK assertion ids by decreasing credibility.
	Ranked []int
	// Stages holds per-stage timings in execution order (ingest, cluster,
	// build, fit, rank). A run cut short carries the stages it completed.
	Stages []StageTiming
}

// Errors returned by the pipeline.
var (
	ErrNoMessages = errors.New("apollo: input has no messages")
	ErrNilFinder  = errors.New("apollo: nil fact-finder")
	ErrGraphSize  = errors.New("apollo: graph size does not match NumSources")
)

// Run executes the pipeline with the given fact-finder.
func Run(in Input, finder factfind.FactFinder, opts Options) (*Output, error) {
	return RunContext(context.Background(), in, finder, opts)
}

// RunContext executes the pipeline with the given fact-finder under ctx.
// The context is checked between stages and threaded into the fact-finder;
// if the finder is cancelled mid-run, the partially built Output (dataset,
// cluster assignment, and the finder's partial result, when it produced
// one) is returned alongside the context's error so callers can report how
// far the run got.
func RunContext(ctx context.Context, in Input, finder factfind.FactFinder, opts Options) (*Output, error) {
	if len(in.Messages) == 0 {
		return nil, ErrNoMessages
	}
	if finder == nil {
		return nil, ErrNilFinder
	}
	graph := in.Graph
	if graph == nil {
		graph = depgraph.NewGraph(in.NumSources)
	}
	if graph.N() != in.NumSources {
		return nil, fmt.Errorf("%w: graph has %d sources, input %d", ErrGraphSize, graph.N(), in.NumSources)
	}
	topK := opts.TopK
	if topK <= 0 {
		topK = 100
	}
	clusterer := opts.Clusterer
	if clusterer == nil {
		clusterer = &cluster.Leader{}
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	var stages []StageTiming
	mark := clock()
	stageDone := func(name string) {
		now := clock()
		stages = append(stages, StageTiming{Stage: name, Duration: now.Sub(mark)})
		mark = now
	}

	// Stage 1: assertion extraction.
	if err := runctx.Err(ctx); err != nil {
		return nil, err
	}
	docs := make([][]string, len(in.Messages))
	for i, msg := range in.Messages {
		docs[i] = cluster.Tokenize(msg.Text)
	}
	stageDone("ingest")
	assign := clusterer.Cluster(docs)
	stageDone("cluster")

	// Stage 2: source-claim matrix + dependency indicators from timing and
	// the follow graph.
	if err := runctx.Err(ctx); err != nil {
		return nil, err
	}
	events := make([]depgraph.Event, len(in.Messages))
	for i, msg := range in.Messages {
		if msg.Source < 0 || msg.Source >= in.NumSources {
			return nil, fmt.Errorf("apollo: message %d has source %d outside [0,%d)", i, msg.Source, in.NumSources)
		}
		events[i] = depgraph.Event{Source: msg.Source, Assertion: assign.Cluster[i], Time: msg.Time}
	}
	ds, err := depgraph.BuildDataset(graph, events, assign.NumClusters)
	if err != nil {
		return nil, fmt.Errorf("apollo: build dataset: %w", err)
	}
	stageDone("build")

	// Stage 3: fact-finding.
	reps := make([]string, assign.NumClusters)
	for c, leader := range assign.Leaders {
		reps[c] = in.Messages[leader].Text
	}
	res, err := finder.RunContext(ctx, ds)
	stageDone("fit")
	if err != nil {
		out := &Output{
			Dataset:            ds,
			MessageAssertion:   assign.Cluster,
			RepresentativeText: reps,
			Result:             res,
			Stages:             stages,
		}
		if runctx.Reason(err) != "" {
			// Cancellation mid-run: surface the partial output with the
			// context's error untouched so errors.Is still matches.
			return out, err
		}
		return out, fmt.Errorf("apollo: %s: %w", finder.Name(), err)
	}
	ranked := res.TopK(topK)
	stageDone("rank")
	return &Output{
		Dataset:            ds,
		MessageAssertion:   assign.Cluster,
		RepresentativeText: reps,
		Result:             res,
		Ranked:             ranked,
		Stages:             stages,
	}, nil
}
