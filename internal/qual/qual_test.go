package qual

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"depsense/internal/bound"
	"depsense/internal/claims"
	"depsense/internal/core"
	"depsense/internal/factfind"
	"depsense/internal/jsonl"
	"depsense/internal/model"
	"depsense/internal/obs"
	"depsense/internal/randutil"
	"depsense/internal/stream"
	"depsense/internal/trace"
	"depsense/internal/twittersim"
)

var update = flag.Bool("update", false, "rewrite golden verdict files")

// testDataset builds a tiny independent-claims dataset: 3 sources each
// claiming a disjoint pair of 4 assertions (plus overlap on assertion 0).
func testDataset(t *testing.T) *claims.Dataset {
	t.Helper()
	ds, err := claims.NewBuilder(3, 4).
		AddClaim(0, 0, false).AddClaim(0, 1, false).
		AddClaim(1, 0, false).AddClaim(1, 2, false).
		AddClaim(2, 3, false).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// testRefit fabricates a refit with the given per-source reliabilities.
func testRefit(ds *claims.Dataset, a []float64) Refit {
	p := model.NewParams(len(a), 0.5)
	for i, ai := range a {
		p.Sources[i] = model.SourceParams{A: ai, B: 0.2, F: 0.5, G: 0.1}
	}
	return Refit{
		Result:  &factfind.Result{Posterior: []float64{0.9, 0.8, 0.7, 0.6}, Params: p},
		Dataset: ds,
		Edges:   -1,
	}
}

// TestMonitorSourceDriftAlarm is the heart of the drift contract: a source
// whose fitted reliability steps down fires a source-reliability alarm at a
// deterministic tick, the offending window lands in the flight recorder
// under a deterministic id, and the verdict spill round-trips it.
func TestMonitorSourceDriftAlarm(t *testing.T) {
	ds := testDataset(t)
	flight := trace.NewFlightRecorder(4, 4)
	reg := obs.NewRegistry()
	dir := t.TempDir()
	m := NewMonitor(Options{
		Window: 8, MinObs: 4,
		BoundEvery: -1,
		Truth:      func(int) (bool, bool) { return true, true },
		Metrics:    reg, Flight: flight, SpillDir: dir,
	})

	ctx := context.Background()
	var verdicts []*Verdict
	reliability := func(tick int) []float64 {
		if tick >= 10 {
			return []float64{0.9, 0.4, 0.85} // source 1 steps down
		}
		return []float64{0.9, 0.9, 0.85}
	}
	for tick := 0; tick < 16; tick++ {
		v, err := m.ObserveRefit(ctx, testRefit(ds, reliability(tick)))
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if v.Tick != tick {
			t.Fatalf("verdict tick = %d, want %d", v.Tick, tick)
		}
		verdicts = append(verdicts, v)
	}

	alarms := m.Alarms()
	if len(alarms) == 0 {
		t.Fatal("no alarm after reliability step 0.9 -> 0.4")
	}
	a := alarms[0]
	if a.Kind != AlarmSourceReliability || a.Source != 1 {
		t.Fatalf("alarm = %+v, want %s on source 1", a, AlarmSourceReliability)
	}
	if a.Tick < 10 || a.Tick > 13 {
		t.Fatalf("alarm tick = %d, want within a few ticks of the step at 10", a.Tick)
	}
	if a.Stat <= a.Threshold {
		t.Fatalf("alarm stat %v <= threshold %v", a.Stat, a.Threshold)
	}
	if len(a.Window) == 0 || a.StartTick > a.Tick {
		t.Fatalf("alarm window = %v startTick = %d", a.Window, a.StartTick)
	}
	// The alarm tick's verdict carries the alarm; re-running the same
	// sequence into a fresh monitor fires at the same tick (determinism).
	if got := verdicts[a.Tick].Alarms; len(got) != 1 || got[0].Tick != a.Tick {
		t.Fatalf("verdict %d alarms = %+v", a.Tick, got)
	}
	m2 := NewMonitor(Options{Window: 8, MinObs: 4, BoundEvery: -1,
		Truth: func(int) (bool, bool) { return true, true }})
	for tick := 0; tick < 16; tick++ {
		if _, err := m2.ObserveRefit(ctx, testRefit(ds, reliability(tick))); err != nil {
			t.Fatal(err)
		}
	}
	if a2 := m2.Alarms(); len(a2) == 0 || a2[0].Tick != a.Tick || a2[0].Stat != a.Stat {
		t.Fatalf("replay alarms = %+v, want first at tick %d stat %v", a2, a.Tick, a.Stat)
	}

	// Flight snapshot: deterministic id, alarm status, window as events.
	if a.TraceID == "" {
		t.Fatal("alarm has no trace id despite attached recorder")
	}
	tr, ok := flight.Get(a.TraceID)
	if !ok {
		t.Fatalf("flight recorder has no trace %q", a.TraceID)
	}
	if tr.Status != TraceStatusAlarm || tr.Name != "qual" {
		t.Fatalf("trace status/name = %q/%q", tr.Status, tr.Name)
	}
	if len(tr.Runs) != 1 || tr.Runs[0].Algorithm != AlarmSourceReliability {
		t.Fatalf("trace runs = %+v", tr.Runs)
	}
	evs := tr.Runs[0].Events
	if len(evs) != len(a.Window) {
		t.Fatalf("trace has %d events, window has %d values", len(evs), len(a.Window))
	}
	for i, ev := range evs {
		if !ev.HasValue || ev.Value != a.Window[i] || ev.N != i+1 {
			t.Fatalf("event %d = %+v, want value %v", i, ev, a.Window[i])
		}
	}

	// Spill round-trip: the alarm verdict is recoverable offline.
	spilled, err := jsonl.ReadFile[Verdict](filepath.Join(dir, SpillFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(spilled) != len(verdicts) {
		t.Fatalf("spill has %d verdicts, want %d", len(spilled), len(verdicts))
	}
	sv := spilled[a.Tick]
	if len(sv.Alarms) != 1 || sv.Alarms[0].Kind != a.Kind || sv.Alarms[0].TraceID != a.TraceID {
		t.Fatalf("spilled alarm = %+v, want %+v", sv.Alarms, a)
	}

	// Telemetry: alarm counter and verdict counter.
	if got := reg.Counter(MetricAlarms, "", obs.L("kind", AlarmSourceReliability)).Value(); got != float64(len(alarms)) {
		t.Fatalf("alarm counter = %v, want %v", got, len(alarms))
	}
	if got := reg.Counter(MetricVerdicts, "").Value(); got != 16 {
		t.Fatalf("verdict counter = %v, want 16", got)
	}
	rep := m.Report()
	if rep.Ticks != 16 || rep.Latest == nil || rep.Latest.Tick != 15 || len(rep.Alarms) != len(alarms) {
		t.Fatalf("report = %+v", rep)
	}
}

// TestMonitorEdgeRateAlarm: a burst of new follow edges per claim trips the
// edge-rate CUSUM; a caller with no edge signal (Edges < 0) never does.
func TestMonitorEdgeRateAlarm(t *testing.T) {
	ds := testDataset(t)
	m := NewMonitor(Options{Window: 8, MinObs: 4, BoundEvery: -1,
		Truth: func(int) (bool, bool) { return true, true }})
	ctx := context.Background()
	edges := 0
	for tick := 0; tick < 20; tick++ {
		if tick >= 10 {
			edges += 10 // burst: 2 new edges per claim
		}
		r := testRefit(ds, []float64{0.9, 0.9, 0.9})
		r.Edges = edges
		v, err := m.ObserveRefit(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if tick < 10 && len(v.Alarms) != 0 {
			t.Fatalf("tick %d: unexpected alarms %+v", tick, v.Alarms)
		}
		if v.Drift == nil || (tick > 0 && tick < 10 && v.Drift.EdgeRate != 0) {
			t.Fatalf("tick %d: drift = %+v", tick, v.Drift)
		}
	}
	alarms := m.Alarms()
	if len(alarms) == 0 || alarms[0].Kind != AlarmEdgeRate || alarms[0].Source != -1 {
		t.Fatalf("alarms = %+v, want %s", alarms, AlarmEdgeRate)
	}
	if alarms[0].Tick < 10 {
		t.Fatalf("edge-rate alarm before the burst: tick %d", alarms[0].Tick)
	}

	// No edge signal: the detector is never fed, so it never fires.
	m2 := NewMonitor(Options{Window: 8, MinObs: 4, BoundEvery: -1,
		Truth: func(int) (bool, bool) { return true, true }})
	for tick := 0; tick < 20; tick++ {
		v, err := m2.ObserveRefit(ctx, testRefit(ds, []float64{0.9, 0.9, 0.9}))
		if err != nil {
			t.Fatal(err)
		}
		if v.Drift.EdgeRate != -1 {
			t.Fatalf("edgeRate = %v without a signal, want -1", v.Drift.EdgeRate)
		}
	}
	if a := m2.Alarms(); len(a) != 0 {
		t.Fatalf("alarms without edge signal: %+v", a)
	}
}

// TestMonitorLiveModeVoting: with no Truth function the calibration
// reference is the Voting baseline and every assertion is labeled.
func TestMonitorLiveModeVoting(t *testing.T) {
	ds := testDataset(t)
	m := NewMonitor(Options{BoundEvery: -1})
	v, err := m.ObserveRefit(context.Background(), testRefit(ds, []float64{0.9, 0.9, 0.9}))
	if err != nil {
		t.Fatal(err)
	}
	c := v.Calibration
	if c.Reference != "voting" {
		t.Fatalf("reference = %q, want voting", c.Reference)
	}
	if c.Assertions != ds.M() || c.Labeled != ds.M() {
		t.Fatalf("assertions/labeled = %d/%d, want %d/%d", c.Assertions, c.Labeled, ds.M(), ds.M())
	}
}

// TestMonitorBoundTracking: the bound evaluates on schedule, re-attaches to
// verdicts between evaluations, equals the deterministic all-columns
// convolution bound of the refit, and is byte-identical across runs.
func TestMonitorBoundTracking(t *testing.T) {
	ds := testDataset(t)
	ctx := context.Background()
	refit := testRefit(ds, []float64{0.9, 0.8, 0.85})
	run := func() []*Verdict {
		m := NewMonitor(Options{
			Window: 8, MinObs: 4,
			BoundEvery: 2,
			Truth:      func(int) (bool, bool) { return true, true },
		})
		var out []*Verdict
		for tick := 0; tick < 5; tick++ {
			v, err := m.ObserveRefit(ctx, refit)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
		return out
	}

	vs := run()
	if vs[0].Bound == nil || vs[0].Bound.Tick != 0 {
		t.Fatalf("tick 0 bound = %+v, want evaluation at tick 0", vs[0].Bound)
	}
	if vs[1].Bound == nil || vs[1].Bound.Tick != 0 {
		t.Fatalf("tick 1 bound = %+v, want re-attached tick-0 evaluation", vs[1].Bound)
	}
	if vs[2].Bound == nil || vs[2].Bound.Tick != 2 {
		t.Fatalf("tick 2 bound = %+v, want fresh evaluation", vs[2].Bound)
	}
	want, err := bound.ForDatasetContext(context.Background(), ds, refit.Result.Params, bound.DatasetOptions{
		Method:      bound.MethodConvolution,
		Convolution: bound.ConvolutionOptions{Bins: 4096},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := vs[4].Bound
	if b.Bound <= 0 || b.Bound != want.Err || b.StdErr != 0 || b.Sweeps != 0 {
		t.Fatalf("bound = %+v, want the convolution bound %v with no sampling fields", b, want.Err)
	}
	if b.Exceeded != (b.Observed > b.Bound) {
		t.Fatalf("exceeded = %v with observed %v bound %v", b.Exceeded, b.Observed, b.Bound)
	}

	var first, second bytes.Buffer
	if err := Write(&first, vs...); err != nil {
		t.Fatal(err)
	}
	if err := Write(&second, run()...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("verdict bytes differ between runs:\n%s\n---\n%s", first.Bytes(), second.Bytes())
	}
}

// streamVerdicts drives the real attachment point — stream.Estimator's
// OnRefit hook — over a seeded twittersim stream and returns the verdict
// sequence the monitor produced.
func streamVerdicts(t *testing.T, workers int) []*Verdict {
	t.Helper()
	w, err := twittersim.Generate(twittersim.Small("Ukraine", 60), randutil.New(7))
	if err != nil {
		t.Fatal(err)
	}
	kinds := w.Kinds
	truth := func(j int) (bool, bool) {
		if j < 0 || j >= len(kinds) || kinds[j] == twittersim.KindOpinion {
			return false, false
		}
		return kinds[j] == twittersim.KindTrue, true
	}
	m := NewMonitor(Options{
		Window: 8, MinObs: 3,
		BoundEvery: 3,
		Truth:      truth,
	})
	var verdicts []*Verdict
	est := stream.New(stream.Options{
		EM: core.Options{Workers: workers},
		OnRefit: func(ctx context.Context, ev stream.RefitEvent) {
			v, err := m.ObserveRefit(ctx, Refit{Result: ev.Result, Dataset: ev.Dataset, Edges: ev.Edges})
			if err != nil {
				t.Errorf("observe refit %d: %v", ev.Fit, err)
			}
			verdicts = append(verdicts, v)
		},
	})
	events := w.Events()
	const batch = 16
	for at := 0; at < len(events); at += batch {
		end := min(at+batch, len(events))
		for _, tw := range w.Tweets[at:end] {
			if tw.RetweetOf >= 0 {
				orig := w.Tweets[tw.RetweetOf]
				if orig.Source != tw.Source {
					if err := est.ObserveFollow(tw.Source, orig.Source); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if _, err := est.AddBatch(events[at:end]); err != nil {
			t.Fatal(err)
		}
	}
	if len(verdicts) == 0 {
		t.Fatal("no verdicts produced")
	}
	return verdicts
}

// TestStreamVerdictsGoldenAndWorkersEquivalence is the tentpole's
// determinism gate: the verdict JSONL produced by monitoring a real
// streaming run is byte-identical at Workers 1 and 4 and matches the
// checked-in golden (refresh with go test ./internal/qual -run Golden
// -update).
func TestStreamVerdictsGoldenAndWorkersEquivalence(t *testing.T) {
	var w1, w4 bytes.Buffer
	if err := Write(&w1, streamVerdicts(t, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := Write(&w4, streamVerdicts(t, 4)...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w4.Bytes()) {
		t.Fatalf("verdict bytes differ between Workers 1 and 4:\n%s\n---\n%s", w1.Bytes(), w4.Bytes())
	}

	golden := filepath.Join("testdata", "verdicts.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, w1.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), want) {
		t.Fatalf("verdicts diverge from golden %s (re-run with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			golden, w1.Bytes(), want)
	}
}

// TestVerdictJSONLRoundTrip: the spill codec preserves verdicts exactly.
func TestVerdictJSONLRoundTrip(t *testing.T) {
	ds := testDataset(t)
	m := NewMonitor(Options{BoundEvery: -1, Truth: func(int) (bool, bool) { return true, true }})
	var vs []*Verdict
	for i := 0; i < 3; i++ {
		v, err := m.ObserveRefit(context.Background(), testRefit(ds, []float64{0.9, 0.8, 0.7}))
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	path := filepath.Join(t.TempDir(), "v.jsonl")
	if err := jsonl.WriteFile(path, vs...); err != nil {
		t.Fatal(err)
	}
	got, err := jsonl.ReadFile[Verdict](path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vs) {
		t.Fatalf("read %d verdicts, want %d", len(got), len(vs))
	}
	for i := range vs {
		a, _ := json.Marshal(vs[i])
		b, _ := json.Marshal(got[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("verdict %d round-trip mismatch:\n%s\n%s", i, a, b)
		}
	}
}

// denseFlipScenario is a claim-dense world — few sources, many claims each,
// so per-source fits carry real signal — whose two most prolific sources
// turn fabrication mill at claim 640 (batch tick 20 at batch size 32) when
// flip is set. With flip off the same scenario runs clean.
func denseFlipScenario(flip bool) twittersim.Scenario {
	sc := twittersim.Small("Ukraine", 1000)
	sc.Sources = 24
	sc.Assertions = 120
	sc.Claims = 960
	sc.OriginalClaims = 560
	sc.ActivitySkew = 1.1
	if flip {
		sc.FlipAtClaim = 640
		sc.FlipSources = 2
		sc.FlipReliability = 0.0
	}
	return sc
}

// flipStreamAlarms drives the flip world's event stream through a real
// estimator+monitor pair and returns the monitor's alarms plus the world.
func flipStreamAlarms(t *testing.T, flip bool, workers int) (*twittersim.World, []Alarm) {
	t.Helper()
	w, err := twittersim.Generate(denseFlipScenario(flip), randutil.New(7))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(Options{
		Window: 8, MinObs: 6,
		DriftDelta: 0.03, DriftLambda: 0.4,
		BoundEvery: -1,
	})
	est := stream.New(stream.Options{
		EM: core.Options{Workers: workers},
		OnRefit: func(ctx context.Context, ev stream.RefitEvent) {
			if _, err := m.ObserveRefit(ctx, Refit{Result: ev.Result, Dataset: ev.Dataset, Edges: ev.Edges}); err != nil {
				t.Errorf("observe refit %d: %v", ev.Fit, err)
			}
		},
	})
	events := w.Events()
	const batch = 32
	for at := 0; at < len(events); at += batch {
		end := min(at+batch, len(events))
		for _, tw := range w.Tweets[at:end] {
			if tw.RetweetOf >= 0 {
				orig := w.Tweets[tw.RetweetOf]
				if orig.Source != tw.Source {
					if err := est.ObserveFollow(tw.Source, orig.Source); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if _, err := est.AddBatch(events[at:end]); err != nil {
			t.Fatal(err)
		}
	}
	return w, m.Alarms()
}

// TestStreamFlipCausalAlarm is the drift detector's causal e2e over a real
// estimator: the clean run of the dense scenario fires no source-reliability
// alarm after the flip tick, while the flipped run alarms on a flipped
// source — at a tick that is identical across worker counts.
func TestStreamFlipCausalAlarm(t *testing.T) {
	const flipTick = 640 / 32

	srcAlarms := func(alarms []Alarm, from int) []Alarm {
		var out []Alarm
		for _, a := range alarms {
			if a.Kind == AlarmSourceReliability && a.Tick >= from {
				out = append(out, a)
			}
		}
		return out
	}

	_, baseAlarms := flipStreamAlarms(t, false, 1)
	if late := srcAlarms(baseAlarms, flipTick+1); len(late) != 0 {
		t.Fatalf("clean run has post-flip source alarms (detector too hot): %+v", late)
	}

	w, flipAlarms := flipStreamAlarms(t, true, 1)
	flipped := make(map[int]bool)
	for _, s := range w.FlippedSources {
		flipped[s] = true
	}
	var hit *Alarm
	for _, a := range srcAlarms(flipAlarms, flipTick+1) {
		if flipped[a.Source] {
			a := a
			hit = &a
			break
		}
	}
	if hit == nil {
		t.Fatalf("no post-flip alarm on a flipped source %v; alarms = %+v", w.FlippedSources, flipAlarms)
	}

	// The alarm tick is deterministic: a Workers-4 run reproduces it bit
	// for bit (alarm streams are part of the verdict determinism contract).
	_, flipAlarms4 := flipStreamAlarms(t, true, 4)
	if len(flipAlarms4) != len(flipAlarms) {
		t.Fatalf("alarm count differs across workers: %d vs %d", len(flipAlarms), len(flipAlarms4))
	}
	for i := range flipAlarms {
		a, b := flipAlarms[i], flipAlarms4[i]
		if a.Kind != b.Kind || a.Source != b.Source || a.Tick != b.Tick || a.Stat != b.Stat {
			t.Fatalf("alarm %d differs across workers:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestLiveCalibrationOneReference: in live mode the posterior histograms
// split by the same Voting labels the calibration used, so a cancelled
// context leaves both unlabelled, where a live one labels both.
func TestLiveCalibrationOneReference(t *testing.T) {
	ds := testDataset(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		labeled bool
	}{
		{"live", context.Background(), true},
		{"cancelled", cancelled, false},
	} {
		reg := obs.NewRegistry()
		m := NewMonitor(Options{BoundEvery: -1, Metrics: reg})
		v, err := m.ObserveRefit(tc.ctx, testRefit(ds, []float64{0.9, 0.9, 0.85}))
		if err != nil {
			t.Fatal(err)
		}
		hist := func(set string) uint64 {
			return reg.Histogram(MetricPosterior, "", PosteriorBuckets(), obs.L("set", set)).Count()
		}
		if all := hist("all"); all != uint64(ds.M()) {
			t.Fatalf("%s: %d posteriors in the all set, want %d", tc.name, all, ds.M())
		}
		if got := v.Calibration.Labeled > 0; got != tc.labeled {
			t.Errorf("%s: calibration labelled %d assertions", tc.name, v.Calibration.Labeled)
		}
		if got := hist("agree") > 0; got != tc.labeled {
			t.Errorf("%s: %d posteriors in the agree set", tc.name, hist("agree"))
		}
	}
}
