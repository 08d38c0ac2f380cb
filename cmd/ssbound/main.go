// Command ssbound computes the fundamental error bound (Section III) for a
// claims dataset, with the parameter set θ supplied as JSON or derived from
// a fresh synthetic world.
//
// Usage:
//
//	ssbound -data data.json -params params.json [-method approx|exact]
//	ssbound -demo [-n 15] [-seed 1] [-method both]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"depsense/internal/bound"
	"depsense/internal/claims"
	"depsense/internal/model"
	"depsense/internal/randutil"
	"depsense/internal/runctx"
	"depsense/internal/synthetic"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssbound:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ssbound", flag.ContinueOnError)
	var (
		dataPath   = fs.String("data", "", "claims dataset JSON (from ssgen -kind synthetic)")
		paramsPath = fs.String("params", "", "parameter set JSON {\"sources\":[{\"a\":..},...],\"z\":..}")
		method     = fs.String("method", "approx", "exact, approx, or both")
		demo       = fs.Bool("demo", false, "generate a synthetic world and bound it with its true parameters")
		n          = fs.Int("n", 15, "demo: number of sources")
		seed       = fs.Int64("seed", 1, "random seed")
		sweeps     = fs.Int("sweeps", bound.DefaultGibbsSweeps, "approx: max Gibbs sweeps per column")
		maxCols    = fs.Int("maxcols", 0, "cap distinct dependency columns (0 = all)")
		workers    = fs.Int("workers", 1, "exact: enumeration blocks computed concurrently inside each column's bound; results are identical at any value")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var ds *claims.Dataset
	var params *model.Params
	switch {
	case *demo:
		cfg := synthetic.DefaultConfig()
		cfg.Sources = *n
		if cfg.Trees.Hi > *n {
			cfg.Trees = synthetic.FixedInt((*n + 1) / 2)
		}
		world, err := synthetic.Generate(cfg, randutil.New(*seed))
		if err != nil {
			return err
		}
		ds, params = world.Dataset, world.TrueParams
		fmt.Fprintln(out, "demo world:", ds.Summarize())
	case *dataPath != "" && *paramsPath != "":
		f, err := os.Open(*dataPath)
		if err != nil {
			return err
		}
		defer f.Close()
		ds, err = claims.ReadDataset(f)
		if err != nil {
			return err
		}
		raw, err := os.ReadFile(*paramsPath)
		if err != nil {
			return err
		}
		params = &model.Params{}
		if err := json.Unmarshal(raw, params); err != nil {
			return fmt.Errorf("decode params: %w", err)
		}
		if err := params.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need either -demo or both -data and -params")
	}

	compute := func(m bound.Method, name string) error {
		start := time.Now()
		res, err := bound.ForDatasetContext(ctx, ds, params, bound.DatasetOptions{
			Method:      m,
			MaxColumns:  *maxCols,
			GibbsSweeps: *sweeps,
			Workers:     *workers,
		}, randutil.New(*seed))
		if reason := runctx.Reason(err); reason != "" {
			fmt.Fprintf(out, "%-7s %s after %s — partial column results discarded\n",
				name, reason, time.Since(start).Round(time.Millisecond))
			return fmt.Errorf("%s: %w", name, err)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(out, "%-7s Err=%.6f (FP=%.6f FN=%.6f) in %s\n",
			name, res.Err, res.FalsePos, res.FalseNeg, time.Since(start).Round(time.Microsecond))
		return nil
	}
	switch *method {
	case "exact":
		return compute(bound.MethodExact, "exact")
	case "approx":
		return compute(bound.MethodApprox, "approx")
	case "both":
		if err := compute(bound.MethodExact, "exact"); err != nil {
			return err
		}
		return compute(bound.MethodApprox, "approx")
	default:
		return fmt.Errorf("unknown -method %q", *method)
	}
}
