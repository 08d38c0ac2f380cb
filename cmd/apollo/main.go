// Command apollo runs the end-to-end fact-finding pipeline on a tweet
// stream JSON (as produced by ssgen -kind twitter): cluster tweets into
// assertions, derive the source-claim matrix and dependency indicators,
// run a fact-finder, and print the top-ranked assertions. When the input
// carries ground-truth kinds, it also grades the ranking.
//
// Usage:
//
//	apollo -in tweets.json [-alg EM-Ext] [-topk 20] [-trace run.jsonl]
//
// With -trace, the run's full trace — pipeline stage timings, estimator
// iteration events, and convergence diagnostics — is written as JSONL,
// even when the run is interrupted; inspect it with ssaudit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/core"
	"depsense/internal/depgraph"
	"depsense/internal/grader"
	"depsense/internal/jsonl"
	reportpkg "depsense/internal/report"
	"depsense/internal/runctx"
	"depsense/internal/trace"
	"depsense/internal/tweetjson"
	"depsense/internal/twittersim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "apollo:", err)
		os.Exit(1)
	}
}

type tweetFile struct {
	Sources int                `json:"sources"`
	Follows [][2]int           `json:"follows"`
	Tweets  []twittersim.Tweet `json:"tweets"`
	Kinds   []twittersim.Kind  `json:"kinds,omitempty"`
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("apollo", flag.ContinueOnError)
	var (
		input    = fs.String("in", "", "input file (required)")
		format   = fs.String("format", "sim", "input format: sim (ssgen tweet stream) or twitter-json (Twitter API v1.1 archive)")
		alg      = fs.String("alg", "EM-Ext", "fact-finder: "+strings.Join(baselines.ExtendedNames(), ", "))
		topK     = fs.Int("topk", 20, "ranked assertions to print")
		report   = fs.String("report", "", "also write an HTML report to this file")
		workers  = fs.Int("workers", 1, "estimator parallelism (EM block sharding); results are identical at any value, 0 = GOMAXPROCS")
		traceOut = fs.String("trace", "", "write the run trace (stages, iteration events, convergence diagnostics) as JSONL to this file; inspect with ssaudit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" {
		return fmt.Errorf("-in is required")
	}
	finder := baselines.ExtendedByName(*alg, core.Options{Workers: *workers})
	if finder == nil {
		return fmt.Errorf("unknown algorithm %q; known: %s", *alg, strings.Join(baselines.ExtendedNames(), ", "))
	}

	var (
		in   apollo.Input
		file tweetFile
	)
	switch *format {
	case "sim":
		raw, err := os.ReadFile(*input)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("decode %s: %w", *input, err)
		}
		graph := depgraph.NewGraph(file.Sources)
		for _, e := range file.Follows {
			if err := graph.AddFollow(e[0], e[1]); err != nil {
				return err
			}
		}
		msgs := make([]apollo.Message, len(file.Tweets))
		for i, t := range file.Tweets {
			msgs[i] = apollo.Message{Source: t.Source, Time: int64(t.ID), Text: t.Text}
		}
		in = apollo.Input{NumSources: file.Sources, Messages: msgs, Graph: graph}
	case "twitter-json":
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		tweets, err := tweetjson.Parse(f)
		if err != nil {
			return err
		}
		in, _, err = tweetjson.ToPipeline(tweets)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -format %q", *format)
	}

	var tb *trace.Builder
	if *traceOut != "" {
		tb = trace.NewBuilder(*input, "apollo", nil)
		tb.SetAttr("algorithm", finder.Name())
		ctx = runctx.WithHook(ctx, tb.Hook())
	}
	pipe, err := apollo.RunContext(ctx, in, finder, apollo.Options{TopK: *topK})
	if tb != nil {
		// Interrupted and failed runs spill too: the trace is the
		// post-mortem, so it must survive exactly the runs that need one.
		if pipe != nil {
			for _, st := range pipe.Stages {
				tb.Stage(st.Stage, st.Duration)
			}
		}
		status, msg := trace.StatusOf(err), ""
		if err != nil {
			msg = err.Error()
		}
		if werr := jsonl.WriteFile(*traceOut, tb.Finish(status, msg)); werr != nil {
			if err == nil {
				return fmt.Errorf("write trace: %w", werr)
			}
			fmt.Fprintln(os.Stderr, "apollo: write trace:", werr)
		}
	}
	if err != nil {
		if reason := runctx.Reason(err); reason != "" && pipe != nil && pipe.Result != nil {
			// Interrupted mid-estimation: report how far the run got
			// before exiting cleanly.
			fmt.Fprintf(out, "interrupted (%s): %s completed %d iterations over %s — partial ranking discarded\n",
				reason, finder.Name(), pipe.Result.Iterations, pipe.Dataset.Summarize())
		}
		return err
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := reportpkg.Render(f, reportpkg.Input{
			Title:     "Fact-finding report: " + *input,
			Algorithm: finder.Name(),
			Pipeline:  pipe,
		}); err != nil {
			return fmt.Errorf("render report: %w", err)
		}
		fmt.Fprintln(out, "report written to", *report)
	}

	fmt.Fprintf(out, "pipeline: %s | %s\n", finder.Name(), pipe.Dataset.Summarize())
	var labels []twittersim.Kind
	if len(file.Kinds) > 0 {
		labels, err = grader.Grade(pipe.MessageAssertion, file.Tweets, file.Kinds)
		if err != nil {
			return err
		}
		score, err := grader.ScoreTopK(pipe.Ranked, labels)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "graded top-%d: accuracy=%.3f (True=%d False=%d Opinion=%d)\n",
			len(pipe.Ranked), score.Accuracy(), score.True, score.False, score.Opinion)
	}
	fmt.Fprintln(out)
	for rank, c := range pipe.Ranked {
		label := ""
		if labels != nil {
			label = " [" + labels[c].String() + "]"
		}
		fmt.Fprintf(out, "%3d. p=%.4f%s %s\n", rank+1, pipe.Result.Posterior[c], label, pipe.RepresentativeText[c])
	}
	return nil
}
