package eval

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"
)

// The gate limits Check always applies. The committed full-scale run
// (BENCH_layers.json) clears each by a wide margin.
const (
	// minKernelSpeedup: the sparse kernel must never be meaningfully slower
	// than the dense reference, even at smoke scale where both are fast.
	minKernelSpeedup = 0.9
	// minReuseRate: open-loop cache hits plus coalesced requests over all
	// open-loop requests.
	minReuseRate = 0.5
	// maxQualOverhead: the quality monitor's cost as a fraction of the
	// fits it rides.
	maxQualOverhead = 0.05
)

// BenchRow is one line of the layer ledger.
type BenchRow struct {
	Layer string  `json:"layer"`
	Case  string  `json:"case"`
	Value float64 `json:"value"`
	// Unit is s, ms, us, x (a speedup), ratio, count, or bool (1 = true).
	Unit string `json:"unit"`
	// Identical is set only on rows that compare two kernels: whether
	// their outputs matched bit for bit.
	Identical *bool `json:"identical,omitempty"`
}

// BenchReport is the layer ledger -exp bench writes as BENCH_layers.json:
// the hot-path kernel, serving and quality-monitor rows of one run, with
// the host they were measured on.
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
	// serveRequests open-loop arrivals at serveRate per second cycle over
	// serveUnique payloads; serveBurst requests then hit a one-slot server.
	serveRequests int
	serveRate     float64
	serveUnique   int
	serveBurst    int
	// qualScale divides the Ukraine scenario replayed qualReps times.
	qualScale, qualReps int
}

var (
	// benchFull: the paper's Table III Twitter trace shape and the same
	// shape at 10×, where the dense kernel's O(n·m) grid scan is ~10^4 times
	// more cell visits than the sparse kernel's nonzeros.
	benchFull = benchSizes{
		hotScales: []hotScale{
			{name: "table3", sources: 5403, assertions: 3703, claims: 7192},
			{name: "table3x10", sources: 54030, assertions: 37030, claims: 71920},
		},
		hotIters: 3, hotReps: 2,
		serveRequests: 2000, serveRate: 500, serveUnique: 32, serveBurst: 16,
		qualScale: 10, qualReps: 3,
	}
	benchQuick = benchSizes{
		hotScales: []hotScale{{name: "smoke", sources: 400, assertions: 300, claims: 1500}},
		hotIters:  2, hotReps: 1,
		serveRequests: 150, serveRate: 600, serveUnique: 6, serveBurst: 12,
		// Large enough that the fit dwarfs timer noise: at smaller scales
		// the ~0.1 ms monitor share makes the ratio jumpy.
		qualScale: 20, qualReps: 2,
	}
)

// Bench runs the layer benchmark — hot-path kernels, serving under load,
// quality-monitor overhead — on the benchFull table, or benchQuick when
// quick is set. clock stamps GeneratedAt (nil means time.Now); the
// timings themselves always read the wall clock, which is what they
// measure. The gate is separate: see Check.
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
	for _, layer := range []func(Config, benchSizes, *BenchReport) error{benchHot, benchServe, benchQual} {
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
// two kernels' outputs differ or a dense/sparse speedup is below
// minKernelSpeedup; when an open-loop request did not return 200, a 429
// lacked Retry-After, the blocker never held the compute slot or the burst
// shed nothing, the serving counters do not reconcile, or the reuse rate is
// below minReuseRate; when no refit was observed or the monitor overhead
// exceeds maxQualOverhead. A gated row that is missing is a breach too.
func (r BenchReport) Check() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("eval: bench: "+format, args...))
	}
	speedups := 0
	for _, row := range r.Rows {
		if row.Identical != nil && !*row.Identical {
			fail("%s %s: kernel outputs diverged — the dense-reference contract is broken", row.Layer, row.Case)
		}
		if row.Unit == "x" {
			speedups++
			if row.Value < minKernelSpeedup {
				fail("%s %s: dense/sparse speedup %.2f is below the required %.2f", row.Layer, row.Case, row.Value, minKernelSpeedup)
			}
		}
	}
	if speedups == 0 {
		fail("hot: no kernel speedup measured")
	}
	get := func(layer, cse string) (float64, bool) {
		v, ok := r.value(layer, cse)
		if !ok {
			fail("%s %s: row missing", layer, cse)
		}
		return v, ok
	}
	if n, ok := get("serve", "open_loop_non200"); ok && n != 0 {
		fail("serve: %g open-loop requests did not return 200", n)
	}
	if n, ok := get("serve", "retry_after_missing"); ok && n != 0 {
		fail("serve: %g 429 responses were missing Retry-After", n)
	}
	if held, ok := get("serve", "blocker_held"); ok && held != 1 {
		fail("serve: the blocker never took the compute slot, so the burst could not be shed")
	} else if n, ok := get("serve", "burst_shed"); ok && n == 0 {
		fail("serve: the saturation burst shed nothing")
	}
	if rec, ok := get("serve", "counters_reconcile"); ok && rec != 1 {
		fail("serve: serving counters do not reconcile (hits+misses != requests, shed counter != 429s, or gauges did not drain)")
	}
	if rr, ok := get("serve", "reuse_rate"); ok && rr < minReuseRate {
		fail("serve: reuse rate %.3f is below the required %.2f", rr, minReuseRate)
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
	t := &table{header: []string{"layer", "case", "value", "unit", "identical"}}
	for _, row := range r.Rows {
		identical := ""
		if row.Identical != nil {
			identical = fmt.Sprint(*row.Identical)
		}
		t.add(row.Layer, row.Case, fmt.Sprintf("%.4g", row.Value), row.Unit, identical)
	}
	return t.write(w)
}

// WriteJSON writes the report as indented JSON.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
