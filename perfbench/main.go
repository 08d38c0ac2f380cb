// Command perfbench is the repository's end-to-end benchmark. It drives the
// continuous ingestion pipeline (internal/ingest, as ssingest runs it) and
// the /v1/factfind handler (internal/httpapi, as ssserve serves it) through
// their public entry points only, on inputs generated from --seed before any
// clock starts, checks every output against a reference computation, and
// prints one JSON result as the last line of standard output.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	perfbench --workload ingest-catchup --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics instead: it alternates untraced and traced repetitions, reads the
// traced ones from spans the benchmark records around its own calls, the
// pipeline's flight recorder and the registries the program exports, and
// reports the difference between the two kinds as the overhead of those
// readings. The program's own tracing is on in every rep.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(config, *outcome) error{
	"ingest-catchup":  runIngestCatchup,
	"ingest-quality":  runIngestQuality,
	"factfind-unique": runFactfindUnique,
}

// endToEnd lists the metrics a --trace 0 run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"top_precision", "ratio"},
}

// perLayer lists the metrics a --trace 1 run reports, with their units. A
// layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"stream.refit_ms_p50", "ms"},
	{"stream.refit_ms_tail", "ms"},
	{"stream.refit_share", "ratio"},
	{"depgraph.build_ms_mean", "ms"},
	{"core.fit_ms_mean", "ms"},
	{"core.em_iters_mean", "count"},
	{"ingest.wal_ms_mean", "ms"},
	{"ingest.snapshots", "count"},
	{"ingest.replayed_batches", "count"},
	{"ingest.publish_ms_mean", "ms"},
	{"ingest.batch_queue_mean", "count"},
	{"ingest.alloc_kb_per_tweet", "KiB"},
	{"ingest.estimator_share", "ratio"},
	{"cluster.ms_per_batch", "ms"},
	{"cluster.ms_per_request", "ms"},
	{"qual.observe_ms_mean", "ms"},
	{"bound.evals", "count"},
	{"bound.eval_ms_mean", "ms"},
	{"bound.share", "ratio"},
	{"httpapi.frontdoor_ms_p50", "ms"},
	{"httpapi.alloc_kb_per_request", "KiB"},
	{"serve.hits", "count"},
	{"serve.misses", "count"},
	{"generator.rss_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
	{"tail.percentile", "pct"},
	{"tail.samples_beyond", "count"},
}

// setupTrials is how many times a rep builds a system whose set-up takes
// microseconds, reporting the median: one such reading does not repeat.
// setupGap idles before each build. Back to back, builds of tens of
// microseconds run in the caches the previous one left and read one of two
// speeds 1.8x apart, switching between blocks of builds at random; after an
// idle gap every build starts cold and the readings have one mode.
const (
	setupTrials = 31
	setupGap    = 10 * time.Millisecond
)

// timeSetup calls build trials times, each after setupGap of idling, and
// returns the median time a call took.
func timeSetup(trials int, build func() error) (float64, error) {
	times := make([]float64, trials)
	for i := range times {
		time.Sleep(setupGap)
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		times[i] = time.Since(start).Seconds()
	}
	return median(times), nil
}

// config is what every workload function receives.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	// dir is a private scratch directory inside the checkout, removed on
	// exit; the ingest workloads keep their data directories there.
	dir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates what a workload measured and which checks failed.
type outcome struct {
	attempted int
	failed    int
	failures  []string // the first few failure descriptions
	values    map[string]float64
}

// fail counts one failed operation and keeps its description.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN counts n failed operations under one description.
func (o *outcome) failN(n int, format string, args ...any) {
	o.failed += n
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// rep is one repetition of a workload: set the system under test up, drive
// it, and check what it returned.
type rep struct {
	setup  float64   // seconds until the system accepted its first input
	ops    int       // tweets committed, or 200 responses
	wall   float64   // seconds the drive took
	lat    []float64 // per-operation latency in ms
	traced bool
	layers map[string]float64 // per-layer values, traced reps only
}

// repeat runs reps until the measuring budget is spent: another rep starts
// only while the one before it still fits into what is left. A traced
// invocation alternates untraced and traced reps and runs at least one of
// each.
func repeat(cfg config, one func(traced bool) (rep, error)) ([]rep, error) {
	minReps := 1
	if cfg.traced {
		minReps = 2
	}
	var reps []rep
	spent := 0.0
	for {
		traced := cfg.traced && len(reps)%2 == 1
		// Each rep starts from a collected heap, so a collection left over
		// from set-up or the previous rep does not land in its numbers.
		runtime.GC()
		start := time.Now()
		r, err := one(traced)
		if err != nil {
			return nil, err
		}
		r.traced = traced
		reps = append(reps, r)
		took := time.Since(start).Seconds()
		spent += took
		if len(reps) >= minReps && spent+took > cfg.seconds {
			return reps, nil
		}
	}
}

// summarize turns the reps into the reported metrics: the median over reps
// of each rep's set-up time, throughput, p50 and tail latency, and in a
// traced invocation the median over traced reps of each per-layer value.
func summarize(reps []rep, o *outcome) error {
	var setups, thr, p50s, tails []float64
	var untracedWall, tracedWall []float64
	var ts tailStat
	layers := map[string][]float64{}
	for _, r := range reps {
		if r.ops == 0 || len(r.lat) == 0 {
			return errors.New("a repetition completed no operations")
		}
		s := sortedCopy(r.lat)
		t, ok := tail(s)
		if !ok {
			return fmt.Errorf("%d latency samples are too few for a tail percentile", len(s))
		}
		ts = t
		setups = append(setups, r.setup)
		thr = append(thr, float64(r.ops)/r.wall)
		p50s = append(p50s, percentile(s, 50))
		tails = append(tails, t.value)
		if r.traced {
			tracedWall = append(tracedWall, r.wall/float64(r.ops))
			for k, v := range r.layers {
				layers[k] = append(layers[k], v)
			}
		} else {
			untracedWall = append(untracedWall, r.wall/float64(r.ops))
		}
	}
	o.set("setup_s", median(setups))
	o.set("throughput_per_s", median(thr))
	o.set("latency_p50_ms", median(p50s))
	o.set("latency_tail_ms", median(tails))
	o.set("tail.percentile", float64(ts.pct))
	o.set("tail.samples_beyond", float64(ts.beyond))
	fmt.Printf("# %d reps; tail is p%d of %d samples per rep, %d beyond it\n",
		len(reps), ts.pct, len(reps[0].lat), ts.beyond)
	fmt.Printf("# per rep: setup_s %.4g\n# per rep: throughput_per_s %.4g\n", setups, thr)
	for k, vs := range layers {
		o.set(k, median(vs))
	}
	if len(tracedWall) > 0 && len(untracedWall) > 0 {
		// Traced reps differ from untraced ones only by the benchmark's
		// readings: registry reads around the drive, and on ingest a queue
		// gauge read per publish.
		o.set("trace.overhead_frac", median(tracedWall)/median(untracedWall)-1)
	}
	return nil
}

// procStatusMB reads a memory field ("VmRSS", "VmHWM") of this process
// from /proc/self/status, in MB.
func procStatusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read process status: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("unexpected %s line %q", field, line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", field, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no %s in process status", field)
}

// recordGeneratorRSS records the resident set once the inputs exist and
// before the system under test is built, so that a change of peak_rss_mb
// can be told apart from the generator's share of it.
func recordGeneratorRSS(o *outcome) error {
	mb, err := procStatusMB("VmRSS")
	if err != nil {
		return err
	}
	o.set("generator.rss_mb", mb)
	return nil
}

// recordPeakRSS records the process's peak resident set.
func recordPeakRSS(o *outcome) error {
	mb, err := procStatusMB("VmHWM")
	if err != nil {
		return err
	}
	o.set("peak_rss_mb", mb)
	return nil
}

// onTmpfs reports whether dir lives on a tmpfs, where fsync costs nothing.
func onTmpfs(dir string) bool {
	var st syscall.Statfs_t
	const tmpfsMagic = 0x01021994
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: ingest-catchup, ingest-quality or factfind-unique")
	seed := fs.Int64("seed", 1, "input generator seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measuring budget in seconds")
	traceFlag := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	work := fs.String("work", ".bench_build", "directory for scratch data (ingest data directories)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q; want one of %s", *workload, strings.Join(names, ", "))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *traceFlag)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, not %g", *seconds)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(*work, "perfbench-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)

	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s data_dir_tmpfs=%t\n",
		*workload, *seed, *seconds, *traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), onTmpfs(dir))

	cfg := config{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, dir: dir}
	out := &outcome{values: map[string]float64{}}
	if err := runWorkload(cfg, out); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}

	report := endToEnd
	if cfg.traced {
		report = perLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range report {
		v := out.values[m.name]
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("%-30s %14.6g %s\n", m.name, v, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}
