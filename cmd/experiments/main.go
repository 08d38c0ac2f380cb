// Command experiments reproduces every table and figure of the paper's
// evaluation section. Each experiment prints the same rows or series the
// paper reports; EXPERIMENTS.md records a full run next to the paper's
// numbers.
//
// Usage:
//
//	experiments [-exp all|table1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|table3|fig11|extdepth|bench]
//	            [-quick] [-seed N] [-runs N] [-estruns N] [-scale N] [-workers N] [-csv dir]
//	            [-trace file.jsonl] [-benchout file.json]
//
// With -trace, every estimator and Gibbs iteration fired across the
// selected experiments is recorded into one trace (with convergence
// diagnostics) and written as JSONL — even when the sweep is interrupted;
// inspect it with sstrace.
//
// The special experiment id "bench" (never part of "all") runs the layer
// benchmark — hot-path kernels (dense reference vs production sparse,
// single-threaded), the HTTP serving layer under open-loop load and a
// saturation burst, and the estimation-quality monitor's overhead — and
// writes one ledger of rows to -benchout. It doubles as a gate with fixed
// limits: the run fails unless the kernels agree bit for bit and the sparse
// kernel is at least 0.9× the dense one, every open-loop request returns
// 200, every 429 carries Retry-After, the burst sheds, the serving counters
// reconcile, the reuse rate is at least 0.5, and the monitor costs at most
// 5% of the fits it rides. -quick selects the smoke-scale workloads.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"depsense/internal/eval"
	"depsense/internal/plot"
	"depsense/internal/runctx"
	"depsense/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment id: all, table1, fig3..fig11, table3, extdepth, extsybil, or bench (the layer benchmark, never part of all)")
		quick    = fs.Bool("quick", false, "reduced-scale smoke run")
		seed     = fs.Int64("seed", 1, "base random seed")
		runs     = fs.Int("runs", 0, "override bound-experiment repetitions (paper: 20)")
		estRuns  = fs.Int("estruns", 0, "override estimator repetitions (paper: 300)")
		scale    = fs.Int("scale", 0, "override empirical volume divisor (1 = Table III scale)")
		workers  = fs.Int("workers", 0, "parallelism across repetitions and inside the bound/EM hot paths (0 = GOMAXPROCS, 1 = serial); results are identical at any value")
		csvDir   = fs.String("csv", "", "also write each experiment's series as CSV into this directory")
		svgDir   = fs.String("svg", "", "also render each figure as SVG into this directory")
		benchOut = fs.String("benchout", "BENCH_layers.json", "bench: write the layer ledger JSON to this path")
		traceOut = fs.String("trace", "", "record every estimator iteration across the selected experiments and write the trace as JSONL to this file; inspect with sstrace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := eval.DefaultConfig()
	if *quick {
		cfg = eval.QuickConfig()
	}
	cfg.Ctx = ctx // SIGINT/SIGTERM stop the sweeps between repetitions
	cfg.Seed = *seed
	if *runs > 0 {
		cfg.BoundRuns = *runs
	}
	if *estRuns > 0 {
		cfg.EstimatorRuns = *estRuns
	}
	if *scale > 0 {
		cfg.EmpiricalScale = *scale
	}
	cfg.Workers = *workers

	if *traceOut != "" {
		tb := trace.NewBuilder(*exp, "experiments", nil)
		tb.SetAttr("exp", *exp)
		tb.SetAttr("seed", fmt.Sprint(*seed))
		cfg.Ctx = runctx.WithHook(cfg.Ctx, tb.Hook())
		// Deferred so an interrupted sweep still leaves its post-mortem
		// behind; the run error wins over a spill error.
		defer func() {
			status, msg := trace.StatusOf(err), ""
			if err != nil {
				msg = err.Error()
			}
			if werr := trace.WriteFile(*traceOut, tb.Finish(status, msg)); werr != nil {
				if err == nil {
					err = fmt.Errorf("write trace: %w", werr)
				} else {
					fmt.Fprintln(os.Stderr, "experiments: write trace:", werr)
				}
			}
		}()
	}

	for _, dir := range []string{*csvDir, *svgDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}
	writeFile := func(path string, emit func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	writeCSV := func(id string, emit func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		return writeFile(filepath.Join(*csvDir, id+".csv"), emit)
	}
	writeSVG := func(id string, chart *plot.Chart) error {
		if *svgDir == "" {
			return nil
		}
		return writeFile(filepath.Join(*svgDir, id+".svg"), chart.RenderSVG)
	}

	selected := strings.Split(strings.ToLower(*exp), ",")
	want := func(id string) bool {
		for _, s := range selected {
			if s == "all" || s == id {
				return true
			}
		}
		return false
	}
	// bench is opt-in only: a machine benchmark, not a paper experiment,
	// so "all" never selects it.
	if slices.Contains(selected, "bench") {
		start := time.Now()
		fmt.Fprintln(out, "==== bench ====")
		rep, err := eval.Bench(cfg, *quick, time.Now)
		if err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		if err := rep.Render(out); err != nil {
			return err
		}
		if err := writeFile(*benchOut, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n(bench took %s)\n\n", *benchOut, time.Since(start).Round(time.Millisecond))
		// The ledger is written before the gate so a failing run leaves
		// its rows behind.
		if err := rep.Check(); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
	}

	section := func(id string, fn func() error) error {
		if !want(id) {
			return nil
		}
		start := time.Now()
		fmt.Fprintf(out, "==== %s ====\n", id)
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintf(out, "(%s took %s)\n\n", id, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if err := section("table1", func() error {
		r, err := eval.TableI()
		if err != nil {
			return err
		}
		return r.Render(out)
	}); err != nil {
		return err
	}

	var fig3 eval.BoundSeries
	if err := section("fig3", func() error {
		var err error
		fig3, err = eval.Fig3BoundVsSources(cfg)
		if err != nil {
			return err
		}
		if err := writeCSV("fig3", fig3.WriteCSV); err != nil {
			return err
		}
		if err := writeSVG("fig3", fig3.Chart()); err != nil {
			return err
		}
		return fig3.Render(out)
	}); err != nil {
		return err
	}
	for _, f := range []struct {
		id string
		fn func(eval.Config) (eval.BoundSeries, error)
	}{
		{"fig4", eval.Fig4BoundVsTrees},
		{"fig5", eval.Fig5BoundVsOdds},
	} {
		f := f
		if err := section(f.id, func() error {
			s, err := f.fn(cfg)
			if err != nil {
				return err
			}
			if err := writeCSV(f.id, s.WriteCSV); err != nil {
				return err
			}
			if err := writeSVG(f.id, s.Chart()); err != nil {
				return err
			}
			return s.Render(out)
		}); err != nil {
			return err
		}
	}
	if err := section("fig6", func() error {
		if fig3.Points == nil {
			var err error
			fig3, err = eval.Fig3BoundVsSources(cfg)
			if err != nil {
				return err
			}
		}
		timing := eval.Fig6Timing(fig3)
		if err := writeCSV("fig6", timing.WriteCSV); err != nil {
			return err
		}
		if err := writeSVG("fig6", timing.TimingChart()); err != nil {
			return err
		}
		return timing.Render(out)
	}); err != nil {
		return err
	}

	for _, f := range []struct {
		id string
		fn func(eval.Config) (eval.EstimatorSeries, error)
	}{
		{"fig7", eval.Fig7EstimatorVsSources},
		{"fig8", eval.Fig8EstimatorVsAssertions},
		{"fig9", eval.Fig9EstimatorVsTrees},
		{"fig10", eval.Fig10EstimatorVsOdds},
		{"extdepth", eval.ExtDepthEstimators},
	} {
		f := f
		if err := section(f.id, func() error {
			s, err := f.fn(cfg)
			if err != nil {
				return err
			}
			if err := writeCSV(f.id, s.WriteCSV); err != nil {
				return err
			}
			if err := writeSVG(f.id, s.Chart()); err != nil {
				return err
			}
			return s.Render(out)
		}); err != nil {
			return err
		}
	}

	if err := section("extsybil", func() error {
		r, err := eval.ExtSybilAttack(cfg)
		if err != nil {
			return err
		}
		return r.Render(out)
	}); err != nil {
		return err
	}

	if want("table3") || want("fig11") {
		start := time.Now()
		emp, err := eval.Empirical(cfg)
		if err != nil {
			return fmt.Errorf("empirical: %w", err)
		}
		if want("table3") {
			fmt.Fprintln(out, "==== table3 ====")
			if err := emp.RenderTableIII(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		if want("fig11") {
			fmt.Fprintln(out, "==== fig11 ====")
			if err := writeCSV("fig11", emp.WriteCSV); err != nil {
				return err
			}
			if err := writeSVG("fig11", emp.Chart()); err != nil {
				return err
			}
			if err := emp.RenderFig11(out); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "(empirical took %s)\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}
