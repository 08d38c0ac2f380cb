package eval

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"
)

// maxQualOverhead is the gate limit Check always applies: the quality
// monitor's cost as a fraction of the fits it rides. The committed
// full-scale run (BENCH_layers.json) clears it by a wide margin.
const maxQualOverhead = 0.05

// BenchRow is one line of the layer ledger.
type BenchRow struct {
	Layer string  `json:"layer"`
	Case  string  `json:"case"`
	Value float64 `json:"value"`
	// Unit is s, ms, us, ratio, count, or bool (1 = true).
	Unit string `json:"unit"`
}

// BenchReport is the layer ledger -exp bench writes as BENCH_layers.json:
// the hot-path kernel, quality-monitor and error-bound rows of one run, with the host they were measured on.
type BenchReport struct {
	GOMAXPROCS  int        `json:"gomaxprocs"`
	NumCPU      int        `json:"numcpu"`
	GoVersion   string     `json:"go_version"`
	GeneratedAt string     `json:"generated_at"` // RFC 3339
	Rows        []BenchRow `json:"rows"`
}

func (r *BenchReport) add(layer, cse string, value float64, unit string) {
	r.Rows = append(r.Rows, BenchRow{Layer: layer, Case: cse, Value: value, Unit: unit})
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// benchSizes is one fixed workload table: benchFull is the committed run,
// benchQuick the CI smoke.
type benchSizes struct {
	hotScales []hotScale
	// hotIters is the isolated E-steps (and M-steps) per rep and the full
	// fit's EM iterations; hotReps keeps the fastest of that many reps.
	hotIters, hotReps int
	// qualScale divides the Ukraine scenario replayed qualReps times; the
	// bound layer evaluates the final refit of that replay qualReps times.
	qualScale, qualReps int
}

var (
	// benchFull: the paper's Table III Twitter trace shape and the same
	// shape at 10×.
	benchFull = benchSizes{
		hotScales: []hotScale{
			{name: "table3", sources: 5403, assertions: 3703, claims: 7192},
			{name: "table3x10", sources: 54030, assertions: 37030, claims: 71920},
		},
		hotIters: 3, hotReps: 2,
		qualScale: 10, qualReps: 3,
	}
	benchQuick = benchSizes{
		hotScales: []hotScale{{name: "smoke", sources: 400, assertions: 300, claims: 1500}},
		hotIters:  2, hotReps: 3,
		// Large enough that the fit dwarfs timer noise: at smaller scales
		// the ~0.1 ms monitor share makes the ratio jumpy.
		qualScale: 20, qualReps: 2,
	}
)

// Bench runs the layer benchmark — hot-path kernels, quality-monitor
// overhead and the monitor's error bound — on the
// benchFull table, or benchQuick when quick is set. clock stamps
// GeneratedAt (nil means time.Now); the timings themselves always read the
// wall clock, which is what they measure. The gate is separate: see Check.
func Bench(c Config, quick bool, clock func() time.Time) (BenchReport, error) {
	c = c.normalized()
	sz := benchFull
	if quick {
		sz = benchQuick
	}
	if clock == nil {
		clock = time.Now // the injectable default, not a bare read
	}
	rep := BenchReport{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		GeneratedAt: clock().UTC().Format(time.RFC3339),
	}
	for _, layer := range []func(Config, benchSizes, *BenchReport) error{benchHot, benchQual} {
		if err := layer(c, sz, &rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// value returns the first row's value for (layer, case).
func (r BenchReport) value(layer, cse string) (float64, bool) {
	for _, row := range r.Rows {
		if row.Layer == layer && row.Case == cse {
			return row.Value, true
		}
	}
	return 0, false
}

// Check is the gate, with fixed limits. It fails, naming every breach, when
// the E-step, M-step or fit has no hot row, when no refit was observed, or
// when the monitor overhead exceeds maxQualOverhead. A gated row that is
// missing is a breach too. Hot timings are reported, not gated.
func (r BenchReport) Check() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("eval: bench: "+format, args...))
	}
	for _, step := range []string{"estep", "mstep", "fit"} {
		if !slices.ContainsFunc(r.Rows, func(row BenchRow) bool {
			return row.Layer == "hot" && strings.HasSuffix(row.Case, "/"+step+"/sparse")
		}) {
			fail("hot %s: row missing", step)
		}
	}
	get := func(layer, cse string) (float64, bool) {
		v, ok := r.value(layer, cse)
		if !ok {
			fail("%s %s: row missing", layer, cse)
		}
		return v, ok
	}
	if n, ok := get("qual", "ticks"); ok && n == 0 {
		fail("qual: no refits measured")
	}
	if ov, ok := get("qual", "overhead"); ok && ov > maxQualOverhead {
		fail("qual: monitor overhead %.4f exceeds the allowed %.2f", ov, maxQualOverhead)
	}
	return errors.Join(errs...)
}

// Render writes the ledger as a table.
func (r BenchReport) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "layer ledger (GOMAXPROCS=%d, NumCPU=%d, %s)\n", r.GOMAXPROCS, r.NumCPU, r.GoVersion); err != nil {
		return err
	}
	t := &table{header: []string{"layer", "case", "value", "unit"}}
	for _, row := range r.Rows {
		t.add(row.Layer, row.Case, fmt.Sprintf("%.4g", row.Value), row.Unit)
	}
	return t.write(w)
}

// WriteJSON writes the report as indented JSON.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
