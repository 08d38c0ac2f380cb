package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"depsense/internal/jsonl"
	"depsense/internal/qual"
	"depsense/internal/runctx"
	"depsense/internal/trace"
)

// testClock is a deterministic clock for builders (one ms per call).
func testClock() func() time.Time {
	base := time.Unix(1700000000, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

// emTrace builds a healthy EM-style trace: monotone log-likelihood,
// converged.
func emTrace(id string) *trace.Trace {
	b := trace.NewBuilder(id, "apollo", testClock())
	b.SetAttr("algorithm", "EM-Ext")
	b.Stage("fit", 5*time.Millisecond)
	hook := b.Hook()
	lls := []float64{-90, -60, -50}
	for i, ll := range lls {
		hook(runctx.Iteration{
			Algorithm: "EM-Ext", N: i + 1,
			LogLikelihood: ll, HasLL: true,
			Done: i == len(lls)-1, Stopped: runctx.StopConverged,
		})
	}
	return b.Finish(trace.StatusOK, "")
}

// gibbsTrace builds a Gibbs-style trace: sixteen checkpoints carrying a
// batch-mean Value, stopped at the sweep cap.
func gibbsTrace(id string) *trace.Trace {
	b := trace.NewBuilder(id, "factfind", testClock())
	hook := b.Hook()
	// Exactly-representable values keep the %g renderings short.
	for i := 0; i < 16; i++ {
		hook(runctx.Iteration{
			Algorithm: "gibbs-bound", N: i + 1,
			Value: 0.5 + 0.03125*float64(i%2), HasValue: true, Samples: (i + 1) * 100,
			Done: i == 15, Stopped: runctx.StopIterationCap,
		})
	}
	return b.Finish(trace.StatusOK, "")
}

func writeTraces(t *testing.T, name string, traces ...*trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := jsonl.WriteFile(path, traces...); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRenderHealthyTrace(t *testing.T) {
	path := writeTraces(t, "em.jsonl", emTrace("run-1"))
	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"trace run-1 (apollo) status=ok",
		"attrs: algorithm=EM-Ext",
		"stages: fit=5ms",
		"run EM-Ext: iterations=3 stopped=converged",
		"log-likelihood -90 -> -50, monotone",
		"=== 1 trace(s) ok=1 | stop reasons: converged=1",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestFailedTraceAndStopBreakdown(t *testing.T) {
	b := trace.NewBuilder("run-3", "factfind", testClock())
	failed := b.Finish(trace.StatusDeadline, "compute budget exhausted")
	path := writeTraces(t, "mixed.jsonl", emTrace("run-1"), gibbsTrace("run-2"), failed)

	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"trace run-3 (factfind) status=deadline",
		"error: compute budget exhausted",
		"=== 3 trace(s) deadline=1 ok=2 | stop reasons: converged=1 iteration-cap=1",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if err := run([]string{"-check", path}, &strings.Builder{}); err == nil ||
		!strings.Contains(err.Error(), "status deadline") {
		t.Fatalf("-check did not flag the failed trace: %v", err)
	}
}

func TestEventTail(t *testing.T) {
	path := writeTraces(t, "gibbs.jsonl", gibbsTrace("run-2"))
	var out strings.Builder
	if err := run([]string{"-tail", "2", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "... 14 earlier event(s)") {
		t.Fatalf("tail header missing:\n%s", got)
	}
	if !strings.Contains(got, "n=16 value=0.53125 samples=1600 done(iteration-cap)") {
		t.Fatalf("event row missing:\n%s", got)
	}
}

func TestNonMonotoneLLFlagged(t *testing.T) {
	b := trace.NewBuilder("run-4", "apollo", testClock())
	hook := b.Hook()
	for i, ll := range []float64{-90, -60, -75, -55} {
		hook(runctx.Iteration{Algorithm: "EM-Ext", N: i + 1, LogLikelihood: ll, HasLL: true})
	}
	path := writeTraces(t, "dip.jsonl", b.Finish(trace.StatusOK, ""))
	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "NOT MONOTONE: 1 decrease(s), max 15") {
		t.Fatalf("decrease not reported:\n%s", out.String())
	}
	if err := run([]string{"-check", path}, &strings.Builder{}); err == nil ||
		!strings.Contains(err.Error(), "log-likelihood decreased") {
		t.Fatalf("-check did not flag the decrease: %v", err)
	}
	// An -lltol below the dip still fails.
	if err := run([]string{"-check", "-lltol", "1", path}, &strings.Builder{}); err == nil {
		t.Fatal("-lltol 1 forgave a 15-unit decrease")
	}
}

// TestLLTolForgivesSmoothingJitter: production fits use the smoothed M-step,
// whose trajectory can lose a hair of raw log-likelihood near the plateau;
// -lltol marks such runs quasi-monotone instead of failing the check.
func TestLLTolForgivesSmoothingJitter(t *testing.T) {
	b := trace.NewBuilder("run-5", "ingest", testClock())
	hook := b.Hook()
	for i, ll := range []float64{-90, -60.000001, -60.000002, -60.000001} {
		hook(runctx.Iteration{Algorithm: "EM-Social", N: i + 1, LogLikelihood: ll, HasLL: true})
	}
	path := writeTraces(t, "jitter.jsonl", b.Finish(trace.StatusOK, ""))

	// Strict mode flags it.
	if err := run([]string{"-check", path}, &strings.Builder{}); err == nil {
		t.Fatal("strict -check passed a decreasing trajectory")
	}
	var out strings.Builder
	if err := run([]string{"-check", "-lltol", "1e-4", path}, &out); err != nil {
		t.Fatalf("-lltol 1e-4 still failed: %v", err)
	}
	if !strings.Contains(out.String(), "quasi-monotone: 1 decrease(s) within jitter tolerance 0.0001") {
		t.Fatalf("jitter verdict missing:\n%s", out.String())
	}
}

// TestJumpDecreaseForgiven: an accelerated fit's extrapolation may lose
// log-likelihood; -check fails only on a plain EM step that does, and the
// run line reports the jump count.
func TestJumpDecreaseForgiven(t *testing.T) {
	spill := func(name string, lls []float64, jumps ...int) string {
		b := trace.NewBuilder(name, "ingest", testClock())
		hook := b.Hook()
		for i, ll := range lls {
			hook(runctx.Iteration{Algorithm: "EM-Social", N: i + 1, LogLikelihood: ll, HasLL: true,
				Jump: slices.Contains(jumps, i+1)})
		}
		return writeTraces(t, name+".jsonl", b.Finish(trace.StatusOK, ""))
	}
	var out strings.Builder
	if err := run([]string{"-check", "-lltol", "1e-2", spill("jump", []float64{-90, -60, -75, -55, -50}, 3)}, &out); err != nil {
		t.Fatalf("-check failed on an extrapolation drop: %v", err)
	}
	if !strings.Contains(out.String(), "run EM-Social: iterations=5 jumps=1") ||
		!strings.Contains(out.String(), "monotone") {
		t.Fatalf("jump run rendered wrong:\n%s", out.String())
	}
	err := run([]string{"-check", "-lltol", "1e-2", spill("plain", []float64{-90, -60, -75, -55, -50}, 4)}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "log-likelihood decreased 1 time(s)") {
		t.Fatalf("-check did not flag a plain EM-step drop: %v", err)
	}
}

func TestUsageAndBadFile(t *testing.T) {
	if err := run(nil, &strings.Builder{}); err == nil {
		t.Fatal("no-args run succeeded")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, &strings.Builder{}); err == nil {
		t.Fatal("missing file run succeeded")
	}
}

// writeSpill marshals verdicts into a quality.jsonl in a temp dir.
func writeSpill(t *testing.T, verdicts []*qual.Verdict) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, v := range verdicts {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), qual.SpillFile)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func cleanVerdicts() []*qual.Verdict {
	return []*qual.Verdict{
		{
			Tick: 0, Sources: 10, Assertions: 40, Claims: 160,
			Calibration: qual.Calibration{Reference: "truth", Assertions: 40, Labeled: 30, ECE: 0.21, Disagreement: 0.30, ImpliedError: 0.12},
			Drift:       &qual.DriftStatus{SourcesTracked: 10, MaxStat: 0.01, MaxStatSource: 3, DependentFraction: 0.2, EdgeRate: -1},
		},
		{
			Tick: 1, Sources: 10, Assertions: 60, Claims: 320,
			Calibration: qual.Calibration{Reference: "truth", Assertions: 60, Labeled: 48, ECE: 0.08, Disagreement: 0.10, ImpliedError: 0.07},
			Drift:       &qual.DriftStatus{SourcesTracked: 10, MaxStat: 0.02, MaxStatSource: 5, DependentFraction: 0.22, EdgeRate: 0.4, EdgeStat: 0.01},
			Bound:       &qual.BoundStatus{Tick: 1, Bound: 0.15, StdErr: 0.01, Sweeps: 200, Observed: 0.10, Ratio: 0.67},
		},
	}
}

func alarmedVerdicts() []*qual.Verdict {
	vs := cleanVerdicts()
	vs = append(vs, &qual.Verdict{
		Tick: 2, Sources: 10, Assertions: 80, Claims: 480,
		Calibration: qual.Calibration{Reference: "truth", Assertions: 80, Labeled: 64, ECE: 0.31, Disagreement: 0.25, ImpliedError: 0.08},
		Drift:       &qual.DriftStatus{SourcesTracked: 10, MaxStat: 0.55, MaxStatSource: 7, DependentFraction: 0.24, EdgeRate: 0.4},
		Bound:       &qual.BoundStatus{Tick: 2, Bound: 0.15, StdErr: 0.01, Sweeps: 200, Observed: 0.25, Ratio: 1.67, Exceeded: true},
		Alarms: []qual.Alarm{{
			Kind: qual.AlarmSourceReliability, Source: 7, Tick: 2,
			Stat: 0.55, Threshold: 0.4, StartTick: 0,
			Window:  []float64{0.8, 0.6, 0.3},
			TraceID: "qual-source-reliability-7-2",
		}},
	})
	return vs
}

func TestCleanSpillSummary(t *testing.T) {
	path := writeSpill(t, cleanVerdicts())
	var out bytes.Buffer
	if err := run([]string{"-check", path}, &out); err != nil {
		t.Fatalf("clean spill failed -check: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"2 verdict(s), ticks 0..1",
		"calibration vs truth: ece=0.08",
		"drift: 10 source detector(s)",
		"edge-rate 0.4",
		"bound@1: bound=0.15",
		"within bound",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output misses %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "ALARM") {
		t.Errorf("clean spill printed an alarm:\n%s", s)
	}
}

func TestAlarmedSpillCheckFails(t *testing.T) {
	path := writeSpill(t, alarmedVerdicts())

	// Without -check: report, no error.
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatalf("report mode errored: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"ALARM source-reliability tick=2 source=7 stat=0.55 threshold=0.4",
		"window[0..]=[0.8 0.6 0.3]",
		"trace=qual-source-reliability-7-2",
		"alarms: source-reliability=1",
		"EXCEEDED",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output misses %q:\n%s", want, s)
		}
	}

	// With -check: both the alarm and the bound breach become problems.
	err := run([]string{"-check", path}, &out)
	if err == nil {
		t.Fatal("-check passed an alarmed spill")
	}
	for _, want := range []string{"2 problem(s)", "source-reliability alarm at tick 2", "exceeds bound"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("check error misses %q: %v", want, err)
		}
	}
}

func TestECEGate(t *testing.T) {
	path := writeSpill(t, cleanVerdicts())
	var out bytes.Buffer
	if err := run([]string{"-check", "-ece", "0.5", path}, &out); err != nil {
		t.Fatalf("ece 0.08 failed gate 0.5: %v", err)
	}
	err := run([]string{"-check", "-ece", "0.05", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "exceeds 0.05") {
		t.Fatalf("ece 0.08 passed gate 0.05: %v", err)
	}
}

func TestTicksTail(t *testing.T) {
	path := writeSpill(t, alarmedVerdicts())
	var out bytes.Buffer
	if err := run([]string{"-tail", "2", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "... 1 earlier tick(s)") {
		t.Errorf("tail misses elision marker:\n%s", s)
	}
	if !strings.Contains(s, "tick 2: M=80") || strings.Contains(s, "tick 0: M=40") {
		t.Errorf("tail window wrong:\n%s", s)
	}
}

func TestUsageAndMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no args accepted")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "absent.jsonl")}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestSpillKindFromFirstRecord: one invocation audits both spill kinds,
// each file read as the kind of its first record, and a failed trace fails
// -check even when it arrives next to a clean quality spill.
func TestSpillKindFromFirstRecord(t *testing.T) {
	failed := trace.NewBuilder("run-3", "ingest", testClock()).Finish(trace.StatusError, "refit failed")
	traces := writeTraces(t, "traces.jsonl", emTrace("run-1"), failed)
	verdicts := writeSpill(t, cleanVerdicts())
	var out bytes.Buffer
	err := run([]string{"-check", verdicts, traces}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 problem(s)") || !strings.Contains(err.Error(), "trace run-3: status error") {
		t.Fatalf("-check err = %v", err)
	}
	for _, want := range []string{"2 verdict(s), ticks 0..1", "trace run-1 (apollo) status=ok", "=== 2 trace(s) error=1 ok=1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output misses %q:\n%s", want, out.String())
		}
	}
}

// TestWrongKindSpillsRejected: a record that is neither kind, or of the
// other kind after the first record, or torn, fails with file and line
// instead of decoding to zero values and passing.
func TestWrongKindSpillsRejected(t *testing.T) {
	var verdictLine bytes.Buffer
	if err := json.NewEncoder(&verdictLine).Encode(cleanVerdicts()[0]); err != nil {
		t.Fatal(err)
	}
	traceLine, err := trace.Marshal(emTrace("run-1"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct{ name, body, want string }{
		{"verdict after a trace", string(traceLine) + "\n" + verdictLine.String(), "trace spill: jsonl: line 2: json: unknown field \"tick\""},
		{"trace after a verdict", verdictLine.String() + "\n" + string(traceLine) + "\n", "quality spill: jsonl: line 3: json: unknown field \"id\""},
		{"foreign record", `{"kind":"other"}` + "\n", "line 1: json: unknown field \"kind\""},
		{"torn record", verdictLine.String() + `{"tick":1,"sour`, "quality spill: jsonl: line 2: unexpected EOF"},
		{"null run", `{"id":"run-9","status":"ok","runs":[null]}`, "trace run-9: null run record"},
		// Spills written while traces still carried per-chain fields.
		{"multi-chain format", `{"id":"run-0","name":"ingest","status":"ok","diagnostics":{"runs":[{"algorithm":"EM-Social","chains":1,"iterations":1}]}}` + "\n", "line 1: json: unknown field \"chains\""},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".jsonl")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-check", path}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), path+": ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
