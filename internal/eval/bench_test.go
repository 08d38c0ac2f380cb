package eval

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestBenchInjectedClock runs the quick layer benchmark with a fixed clock:
// the envelope's stamp comes from the injected clock, not the wall clock,
// every layer adds rows, and the kernels agree bit for bit.
func TestBenchInjectedClock(t *testing.T) {
	fixed := time.Date(2016, 6, 27, 9, 30, 0, 0, time.UTC)
	rep, err := Bench(Config{Seed: 11}, true, func() time.Time { return fixed })
	if err != nil {
		t.Fatal(err)
	}
	if rep.GeneratedAt != "2016-06-27T09:30:00Z" {
		t.Fatalf("GeneratedAt = %q, want the injected clock's stamp", rep.GeneratedAt)
	}
	if rep.GoVersion == "" || rep.GOMAXPROCS < 1 || rep.NumCPU < 1 {
		t.Fatalf("host not recorded: %+v", rep)
	}
	layers := map[string]int{}
	for _, row := range rep.Rows {
		layers[row.Layer]++
		if row.Identical != nil && !*row.Identical {
			t.Errorf("%s %s: kernel outputs not identical", row.Layer, row.Case)
		}
	}
	for _, l := range []string{"hot", "serve", "qual"} {
		if layers[l] == 0 {
			t.Errorf("no %s rows in %+v", l, rep.Rows)
		}
	}
}

// TestBenchQualOverhead runs the quick quality layer alone: refits are
// observed, the fit/monitor split is sane, and the overhead row is the
// monitor/fit ratio.
func TestBenchQualOverhead(t *testing.T) {
	var rep BenchReport
	if err := benchQual(Config{Seed: 11}.normalized(), benchQuick, &rep); err != nil {
		t.Fatal(err)
	}
	row := func(cse string) float64 {
		v, ok := rep.value("qual", cse)
		if !ok {
			t.Fatalf("qual %s row missing: %+v", cse, rep.Rows)
		}
		return v
	}
	if row("ticks") == 0 {
		t.Fatalf("no refits observed: %+v", rep.Rows)
	}
	fit, monitor, overhead := row("fit"), row("monitor"), row("overhead")
	if fit <= 0 || monitor <= 0 {
		t.Fatalf("degenerate timing split: fit %v ms, monitor %v ms", fit, monitor)
	}
	if ratio := monitor / fit; math.Abs(overhead-ratio) > 1e-12 {
		t.Fatalf("overhead %v does not match monitor/fit = %v", overhead, ratio)
	}
	// The strict maxQualOverhead gate belongs to the CI bench step; under
	// -race (which taxes the monitor and the fit unevenly) and with sibling
	// tests on the same core, this sanity bound is deliberately loose.
	if overhead > 0.2 {
		t.Fatalf("monitor overhead %.4f failed even the loose sanity bound", overhead)
	}
}

// passingBenchReport holds one row per gated condition, each comfortably
// inside its limit.
func passingBenchReport() BenchReport {
	yes := true
	return BenchReport{Rows: []BenchRow{
		{Layer: "hot", Case: "smoke/estep/dense", Value: 0.02, Unit: "s"},
		{Layer: "hot", Case: "smoke/estep/sparse", Value: 0.01, Unit: "s"},
		{Layer: "hot", Case: "smoke/estep/speedup", Value: 2, Unit: "x", Identical: &yes},
		{Layer: "serve", Case: "open_loop_non200", Value: 0, Unit: "count"},
		{Layer: "serve", Case: "reuse_rate", Value: 0.9, Unit: "ratio"},
		{Layer: "serve", Case: "blocker_held", Value: 1, Unit: "bool"},
		{Layer: "serve", Case: "burst_shed", Value: 11, Unit: "count"},
		{Layer: "serve", Case: "retry_after_missing", Value: 0, Unit: "count"},
		{Layer: "serve", Case: "counters_reconcile", Value: 1, Unit: "bool"},
		{Layer: "qual", Case: "ticks", Value: 12, Unit: "count"},
		{Layer: "qual", Case: "overhead", Value: 0.02, Unit: "ratio"},
	}}
}

// TestBenchCheck breaches one gate condition at a time: each must fail the
// gate with its own message, and nothing else may fail alongside it.
func TestBenchCheck(t *testing.T) {
	if err := passingBenchReport().Check(); err != nil {
		t.Fatalf("passing report failed the gate: %v", err)
	}
	cases := []struct {
		name   string
		breach func(r *BenchReport)
		want   string
	}{
		{"kernels diverge", func(r *BenchReport) { no := false; r.Rows[2].Identical = &no }, "kernel outputs diverged"},
		{"slow sparse kernel", func(r *BenchReport) { r.Rows[2].Value = 0.89 }, "speedup 0.89 is below the required 0.90"},
		{"missing retry-after", func(r *BenchReport) { setRow(r, "retry_after_missing", 2) }, "2 429 responses were missing Retry-After"},
		{"no shed", func(r *BenchReport) { setRow(r, "burst_shed", 0) }, "burst shed nothing"},
		{"blocker never held", func(r *BenchReport) { setRow(r, "blocker_held", 0); setRow(r, "burst_shed", 0) }, "blocker never took the compute slot"},
		{"counters", func(r *BenchReport) { setRow(r, "counters_reconcile", 0) }, "counters do not reconcile"},
		{"low reuse", func(r *BenchReport) { setRow(r, "reuse_rate", 0.49) }, "reuse rate 0.490 is below the required 0.50"},
		{"open-loop failure", func(r *BenchReport) { setRow(r, "open_loop_non200", 3) }, "3 open-loop requests did not return 200"},
		{"no ticks", func(r *BenchReport) { setRow(r, "ticks", 0) }, "no refits measured"},
		{"overhead", func(r *BenchReport) { setRow(r, "overhead", 0.051) }, "monitor overhead 0.0510 exceeds the allowed 0.05"},
		{"missing row", func(r *BenchReport) { r.Rows = r.Rows[:len(r.Rows)-1] }, "qual overhead: row missing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := passingBenchReport()
			c.breach(&rep)
			err := rep.Check()
			if err == nil {
				t.Fatal("breach passed the gate")
			}
			if msg := err.Error(); !strings.Contains(msg, c.want) || strings.Contains(msg, "\n") {
				t.Fatalf("gate error = %q, want exactly one failure containing %q", msg, c.want)
			}
		})
	}
	if err := (BenchReport{}).Check(); err == nil {
		t.Fatal("empty report passed the gate")
	}
}

// setRow sets the value of the serve or qual row named cse.
func setRow(r *BenchReport, cse string, v float64) {
	for i := range r.Rows {
		if r.Rows[i].Case == cse {
			r.Rows[i].Value = v
			return
		}
	}
	panic("no row " + cse)
}
