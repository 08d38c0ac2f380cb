// Command ssaudit audits the JSONL spills of the serving stack entirely
// offline: the run traces of ssserve and ssingest (traces.jsonl), the -trace
// output of apollo and experiments, or a trace saved from GET
// /debug/runs/{id}; and the estimation-quality verdicts of a
// quality-monitored ingest pipeline (quality.jsonl). Each file's kind is
// read from its first record under strict decoding, so one invocation can
// mix both; a record of neither kind, or of the other kind later in a file,
// is rejected with its file and line.
//
// Usage:
//
//	ssaudit [-lltol 0] [-ece 0] [-tail N] [-check] file.jsonl [file2.jsonl ...]
//
// For every trace it prints the header (id, workload, status, attrs), the
// pipeline stage timings, and each algorithm run's convergence diagnostics:
// log-likelihood trajectory and monotonicity, and plateau onset; across all
// traces it reports status and stop-reason breakdowns. For every
// quality spill it prints the run header (ticks, dataset growth), the latest
// verdict's calibration summary (ECE, disagreement, implied error), drift
// detector state, and the standing bound-versus-empirical comparison,
// followed by every alarm in tick order with its offending window. -tail
// additionally prints the last N iteration events of every trace run and the
// last N per-tick verdict lines of every quality spill.
//
// With -check it is the CI guard: it exits non-zero when any trace failed,
// any EM trajectory lost log-likelihood, any quality alarm fired, the latest
// bound comparison has empirical error above the paper's bound, or the
// latest ECE exceeds -ece.
// -lltol forgives log-likelihood decreases up to the given size: the
// default M-step applies empirical-Bayes shrinkage, which is not the exact
// likelihood maximizer, so trajectories from production fits jitter by
// small amounts (observed up to ~1e-4) near the plateau; real EM regressions
// are orders larger. Strict ascent holds only with Smoothing < 0 (see
// core.Options).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"depsense/internal/jsonl"
	"depsense/internal/mapsort"
	"depsense/internal/qual"
	"depsense/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssaudit:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ssaudit", flag.ContinueOnError)
	var (
		lltol  = fs.Float64("lltol", 0, "treat log-likelihood decreases up to this size as smoothed-M-step jitter, not failures (0 = strict)")
		eceMax = fs.Float64("ece", 0, "fail -check when a quality spill's latest ECE exceeds this (0 = no ECE gate)")
		tail   = fs.Int("tail", 0, "print the last N iteration events of every run and the last N verdicts of every quality spill (0 = summary only)")
		check  = fs.Bool("check", false, "exit non-zero on failed traces, log-likelihood decreases, quality alarms, bound exceeded, or ECE above -ece")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: ssaudit [-lltol 0] [-ece 0] [-tail N] [-check] file.jsonl ...")
	}

	var problems []string
	traces := 0
	byStatus := map[string]int{}
	byStop := map[string]int{}
	for _, path := range fs.Args() {
		ts, verdicts, err := readSpill(path)
		if err != nil {
			return err
		}
		if len(ts) == 0 && len(verdicts) == 0 {
			fmt.Fprintf(out, "%s: empty spill\n", path)
			continue
		}
		for _, t := range ts {
			traces++
			byStatus[t.Status]++
			if t.Failed() {
				problems = append(problems, fmt.Sprintf("trace %s: status %s", t.ID, t.Status))
			}
			printTrace(out, t, *lltol, *tail, func(stop string) { byStop[stop]++ }, &problems)
		}
		if len(verdicts) > 0 {
			printVerdicts(out, path, verdicts, *tail)
			problems = append(problems, verdictProblems(path, verdicts, *eceMax)...)
		}
	}

	if traces > 0 {
		fmt.Fprintf(out, "=== %d trace(s)", traces)
		for _, k := range mapsort.Keys(byStatus) {
			fmt.Fprintf(out, " %s=%d", k, byStatus[k])
		}
		if len(byStop) > 0 {
			fmt.Fprint(out, " | stop reasons:")
			for _, k := range mapsort.Keys(byStop) {
				fmt.Fprintf(out, " %s=%d", k, byStop[k])
			}
		}
		fmt.Fprintln(out)
	}
	if *check && len(problems) > 0 {
		return fmt.Errorf("%d problem(s):\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

// readSpill decodes one file strictly as run traces or as quality verdicts,
// whichever kind its first record is. A later line of another kind (or
// none) fails the read with the file and line; an empty file reads as
// neither.
func readSpill(path string) ([]*trace.Trace, []*qual.Verdict, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	traces, terr := jsonl.Read[trace.Trace](bytes.NewReader(data))
	switch {
	case terr == nil:
		for _, t := range traces {
			if slices.Contains(t.Runs, nil) {
				return nil, nil, fmt.Errorf("%s: trace %s: null run record", path, t.ID)
			}
		}
		return traces, nil, nil
	case len(traces) > 0:
		return nil, nil, fmt.Errorf("%s: trace spill: %w", path, terr)
	}
	verdicts, verr := jsonl.Read[qual.Verdict](bytes.NewReader(data))
	switch {
	case verr == nil:
		return nil, verdicts, nil
	case len(verdicts) > 0:
		return nil, nil, fmt.Errorf("%s: quality spill: %w", path, verr)
	}
	return nil, nil, fmt.Errorf("%s: first record is neither a run trace (%v) nor a quality verdict (%v)", path, terr, verr)
}

// verdictProblems lists a quality spill's -check failures: every alarm, a
// standing bound breach, and a latest ECE above eceMax (when set).
func verdictProblems(path string, verdicts []*qual.Verdict, eceMax float64) []string {
	var problems []string
	for _, v := range verdicts {
		for _, a := range v.Alarms {
			problems = append(problems, fmt.Sprintf("%s: %s alarm at tick %d (stat %.4g > %.4g)",
				path, a.Kind, a.Tick, a.Stat, a.Threshold))
		}
	}
	last := verdicts[len(verdicts)-1]
	if b := last.Bound; b != nil && b.Exceeded {
		problems = append(problems, fmt.Sprintf("%s: empirical error %.4g exceeds bound %.4g (tick %d)",
			path, b.Observed, b.Bound, b.Tick))
	}
	if eceMax > 0 && last.Calibration.ECE > eceMax {
		problems = append(problems, fmt.Sprintf("%s: latest ECE %.4g exceeds %.4g",
			path, last.Calibration.ECE, eceMax))
	}
	return problems
}

// printTrace renders one trace: header, stages, and per-run diagnostics.
// countStop receives each run's stop reason for the cross-trace breakdown.
func printTrace(out io.Writer, t *trace.Trace, llTol float64, tailEvents int, countStop func(string), problems *[]string) {
	fmt.Fprintf(out, "trace %s (%s) status=%s events=%d duration=%s\n",
		t.ID, t.Name, t.Status, t.Events(), time.Duration(t.DurationNS).Round(time.Microsecond))
	if t.Error != "" {
		fmt.Fprintf(out, "  error: %s\n", t.Error)
	}
	if len(t.Attrs) > 0 {
		parts := make([]string, len(t.Attrs))
		for i, a := range t.Attrs {
			parts[i] = a.Key + "=" + a.Value
		}
		fmt.Fprintf(out, "  attrs: %s\n", strings.Join(parts, " "))
	}
	if len(t.Stages) > 0 {
		parts := make([]string, len(t.Stages))
		for i, s := range t.Stages {
			parts[i] = fmt.Sprintf("%s=%s", s.Name, time.Duration(s.DurationNS).Round(time.Microsecond))
		}
		fmt.Fprintf(out, "  stages: %s\n", strings.Join(parts, " "))
	}
	// Old spills may predate the diagnostics layer (or carry a truncated
	// record): re-diagnose offline.
	diags := t.Diagnostics
	if diags == nil || len(diags.Runs) != len(t.Runs) {
		diags = trace.Diagnose(t)
	}
	for i, run := range t.Runs {
		d := diags.Runs[i]
		if d.Stopped != "" {
			countStop(d.Stopped)
		}
		printRun(out, t.ID, run, d, llTol, tailEvents, problems)
	}
}

func printRun(out io.Writer, traceID string, run *trace.Run, d trace.RunDiag, llTol float64, tailEvents int, problems *[]string) {
	fmt.Fprintf(out, "  run %s: iterations=%d", d.Algorithm, d.Iterations)
	if d.Stopped != "" {
		fmt.Fprintf(out, " stopped=%s", d.Stopped)
	}
	if d.Jumps > 0 {
		fmt.Fprintf(out, " jumps=%d", d.Jumps)
	}
	fmt.Fprintln(out)
	if d.HasLL {
		verdict := "monotone"
		switch {
		case d.Monotone:
		case d.MaxDecrease <= llTol:
			verdict = fmt.Sprintf("quasi-monotone: %d decrease(s) within jitter tolerance %g (max %g)",
				d.LLDecreases, llTol, d.MaxDecrease)
		default:
			verdict = fmt.Sprintf("NOT MONOTONE: %d decrease(s), max %g", d.LLDecreases, d.MaxDecrease)
			*problems = append(*problems,
				fmt.Sprintf("trace %s run %s: log-likelihood decreased %d time(s)", traceID, d.Algorithm, d.LLDecreases))
		}
		fmt.Fprintf(out, "    log-likelihood %g -> %g, %s\n", d.LLFirst, d.LLLast, verdict)
		if d.PlateauAt > 0 {
			fmt.Fprintf(out, "    plateau from iteration %d of %d\n", d.PlateauAt, d.Iterations)
		}
	}
	if tailEvents > 0 {
		evs := run.Events
		if len(evs) > tailEvents {
			fmt.Fprintf(out, "    ... %d earlier event(s)\n", len(evs)-tailEvents)
			evs = evs[len(evs)-tailEvents:]
		}
		for _, e := range evs {
			fmt.Fprint(out, "    ", formatEvent(e), "\n")
		}
	}
}

// formatEvent renders one iteration event compactly, omitting fields the
// emitting layer did not report.
func formatEvent(e trace.Event) string {
	parts := []string{fmt.Sprintf("n=%d", e.N)}
	if e.HasLL {
		parts = append(parts, fmt.Sprintf("ll=%g", e.LogLikelihood))
	}
	if e.HasValue {
		parts = append(parts, fmt.Sprintf("value=%g", e.Value))
	}
	if e.Samples > 0 {
		parts = append(parts, fmt.Sprintf("samples=%d", e.Samples))
	}
	if e.Jump {
		parts = append(parts, "jump")
	}
	if e.Done {
		parts = append(parts, "done("+e.Stopped+")")
	}
	return strings.Join(parts, " ")
}

// printVerdicts renders one quality spill: header, latest-verdict summary,
// alarm list, and optionally the per-tick tail.
func printVerdicts(out io.Writer, path string, verdicts []*qual.Verdict, tailTicks int) {
	first, last := verdicts[0], verdicts[len(verdicts)-1]
	fmt.Fprintf(out, "%s: %d verdict(s), ticks %d..%d, dataset %dx%d -> %dx%d (%d claims)\n",
		path, len(verdicts), first.Tick, last.Tick,
		first.Sources, first.Assertions, last.Sources, last.Assertions, last.Claims)

	c := last.Calibration
	fmt.Fprintf(out, "  calibration vs %s: ece=%.4g disagreement=%.4g implied-error=%.4g (%d/%d labeled)\n",
		c.Reference, c.ECE, c.Disagreement, c.ImpliedError, c.Labeled, c.Assertions)
	if d := last.Drift; d != nil {
		fmt.Fprintf(out, "  drift: %d source detector(s), max stat %.4g (source %d), dependent-fraction %.4g (stat %.4g)",
			d.SourcesTracked, d.MaxStat, d.MaxStatSource, d.DependentFraction, d.DependentStat)
		if d.EdgeRate >= 0 {
			fmt.Fprintf(out, ", edge-rate %.4g (stat %.4g)", d.EdgeRate, d.EdgeStat)
		}
		fmt.Fprintln(out)
	}
	if b := last.Bound; b != nil {
		verdict := "within bound"
		if b.Exceeded {
			verdict = "EXCEEDED"
		}
		fmt.Fprintf(out, "  bound@%d: bound=%.4g observed=%.4g ratio=%.4g: %s\n",
			b.Tick, b.Bound, b.Observed, b.Ratio, verdict)
	}

	byKind := map[string]int{}
	for _, v := range verdicts {
		for _, a := range v.Alarms {
			byKind[a.Kind]++
			fmt.Fprintf(out, "  ALARM %s tick=%d", a.Kind, a.Tick)
			if a.Source >= 0 {
				fmt.Fprintf(out, " source=%d", a.Source)
			}
			fmt.Fprintf(out, " stat=%.4g threshold=%.4g window[%d..]=%s", a.Stat, a.Threshold, a.StartTick, formatWindow(a.Window))
			if a.TraceID != "" {
				fmt.Fprintf(out, " trace=%s", a.TraceID)
			}
			fmt.Fprintln(out)
		}
	}
	if len(byKind) > 0 {
		fmt.Fprint(out, "  alarms:")
		for _, k := range mapsort.Keys(byKind) {
			fmt.Fprintf(out, " %s=%d", k, byKind[k])
		}
		fmt.Fprintln(out)
	}

	if tailTicks > 0 {
		tail := verdicts
		if len(tail) > tailTicks {
			fmt.Fprintf(out, "  ... %d earlier tick(s)\n", len(tail)-tailTicks)
			tail = tail[len(tail)-tailTicks:]
		}
		for _, v := range tail {
			fmt.Fprintf(out, "  tick %d: M=%d ece=%.4g disagreement=%.4g", v.Tick, v.Assertions, v.Calibration.ECE, v.Calibration.Disagreement)
			if v.Drift != nil {
				fmt.Fprintf(out, " maxStat=%.4g", v.Drift.MaxStat)
			}
			if len(v.Alarms) > 0 {
				fmt.Fprintf(out, " alarms=%d", len(v.Alarms))
			}
			fmt.Fprintln(out)
		}
	}
}

// formatWindow renders an alarm's offending window compactly.
func formatWindow(win []float64) string {
	parts := make([]string, len(win))
	for i, v := range win {
		parts[i] = fmt.Sprintf("%.3g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
