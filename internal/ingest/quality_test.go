package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"depsense/internal/core"
	"depsense/internal/jsonl"
	"depsense/internal/qual"
	"depsense/internal/randutil"
	"depsense/internal/stream"
	"depsense/internal/twittersim"
)

// qualBatch is the e2e pipeline batch size; with the dense scenario's 960
// claims the run refits 30 times, and the flip at claim 640 lands in batch
// qualFlipTick.
const (
	qualBatch    = 32
	qualFlipTick = 640 / qualBatch
)

// flipTweets materializes the drift-injection world: a claim-dense scenario
// (few sources, many claims each, so per-source fits are meaningful) whose
// two most prolific sources turn fabrication mill at claim 640. With
// flip=false the same scenario runs clean, which is what makes the alarm
// assertions causal: whatever fires in both runs is warm-up noise; only the
// flip run's extra alarms are drift.
func flipTweets(t *testing.T, flip bool) (*twittersim.World, []Tweet) {
	t.Helper()
	sc := twittersim.Small("Ukraine", 1000)
	sc.Sources = 24
	sc.Assertions = 120
	sc.Claims = 960
	sc.OriginalClaims = 560
	sc.ActivitySkew = 1.1
	sc.Entities = 320
	sc.Places = 90
	if flip {
		sc.FlipAtClaim = 640
		sc.FlipSources = 2
		sc.FlipReliability = 0.0
	}
	w, err := twittersim.Generate(sc, randutil.New(7))
	if err != nil {
		t.Fatal(err)
	}
	src := NewFirehoseSource(w, w.Firehose(twittersim.FirehoseOptions{}))
	var tweets []Tweet
	for {
		tw, ok := src.Next(context.Background())
		if !ok {
			break
		}
		tweets = append(tweets, tw)
	}
	return w, tweets
}

// qualOptions is the monitor tuning used by the e2e tests: warmup long
// enough to ride out the estimator's cold start, a lambda that the clean
// run's settling wobble stays under after the flip point, and bound
// tracking off (covered by qual's own tests) so the alarm tick is purely a
// function of the refit sequence.
func qualOptions() *qual.Options {
	return &qual.Options{
		Window: 8, MinObs: 6,
		DriftDelta: 0.03, DriftLambda: 0.4,
		BoundEvery: -1,
	}
}

// runQualityPipeline executes the flip stream through a quality-monitored
// pipeline and returns the pipeline and its published batches.
func runQualityPipeline(t *testing.T, tweets []Tweet, workers int, dir string) (*Pipeline, []*Published) {
	t.Helper()
	var pubs []*Published
	opts := Options{
		Stream:          stream.Options{EM: core.Options{Workers: workers}},
		BatchSize:       qualBatch,
		DisableShedding: true,
		TraceDir:        dir,
		Quality:         qualOptions(),
		OnPublish:       func(p *Published) { pubs = append(pubs, p) },
	}
	opts.Quality.Workers = workers
	p, err := New(context.Background(), &SliceSource{Tweets: tweets}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return p, pubs
}

// TestPipelineQualityDriftAlarm is the full-pipeline drift e2e, and it is
// differential: the same scenario runs once clean and once with two sources
// turning fabrication mill at claim 640. Both runs are deterministic, their
// alarm streams are identical before the flip tick (the warm-up wobble is
// shared bit for bit), and they diverge after it — the injection visibly
// perturbs the monitor through extraction, dedup and the estimator. An
// alarm from the divergent tail is then recovered from the flight recorder
// and the verdict spill. (The stronger flipped-source-specific causality is
// asserted at the stream layer in internal/qual's TestStreamFlipCausalAlarm;
// through the full pipeline the dedup/clustering path redistributes the
// fabrications' evidence across all sources' fits.)
func TestPipelineQualityDriftAlarm(t *testing.T) {
	_, baseTweets := flipTweets(t, false)
	basePipe, _ := runQualityPipeline(t, baseTweets, 1, t.TempDir())

	w, tweets := flipTweets(t, true)
	dir := t.TempDir()
	p, pubs := runQualityPipeline(t, tweets, 1, dir)

	m := p.Quality()
	if m == nil {
		t.Fatal("pipeline has no quality monitor despite Options.Quality")
	}
	if len(pubs) == 0 {
		t.Fatal("no published batches")
	}
	for i, pub := range pubs {
		if pub.Quality == nil || pub.Quality.Tick != i {
			t.Fatalf("published batch %d quality = %+v, want verdict tick %d", i, pub.Quality, i)
		}
	}

	// srcAlarms filters source-reliability alarms to the tick range
	// [from, to).
	srcAlarms := func(alarms []qual.Alarm, from, to int) []qual.Alarm {
		var out []qual.Alarm
		for _, a := range alarms {
			if a.Kind == qual.AlarmSourceReliability && a.Tick >= from && a.Tick < to {
				out = append(out, a)
			}
		}
		return out
	}
	const noLimit = int(^uint(0) >> 1)

	// Pre-flip the two worlds are byte-identical, and so are their alarms:
	// everything the clean run fires is cold-start settling, not drift.
	basePre := srcAlarms(basePipe.Quality().Alarms(), 0, qualFlipTick)
	flipPre := srcAlarms(m.Alarms(), 0, qualFlipTick)
	if len(basePre) != len(flipPre) {
		t.Fatalf("pre-flip alarms differ: base %d, flip %d", len(basePre), len(flipPre))
	}
	for i := range basePre {
		if basePre[i].Source != flipPre[i].Source || basePre[i].Tick != flipPre[i].Tick {
			t.Fatalf("pre-flip alarm %d differs: base %+v, flip %+v", i, basePre[i], flipPre[i])
		}
	}

	// Post-flip the alarm streams must diverge: some alarm in the flip run
	// has no (source, tick, stat) twin in the clean run. That divergence is
	// the injection's fingerprint — the worlds are identical up to claim
	// 640, so nothing else can cause it.
	key := func(a qual.Alarm) [3]float64 {
		return [3]float64{float64(a.Source), float64(a.Tick), a.Stat}
	}
	baseSet := make(map[[3]float64]bool)
	for _, a := range srcAlarms(basePipe.Quality().Alarms(), qualFlipTick, noLimit) {
		baseSet[key(a)] = true
	}
	var drift *qual.Alarm
	for _, a := range srcAlarms(m.Alarms(), qualFlipTick, noLimit) {
		if !baseSet[key(a)] {
			a := a
			drift = &a
			break
		}
	}
	if drift == nil {
		t.Fatalf("flip run's post-flip alarms are indistinguishable from the clean run's; flip alarms = %+v, flipped sources = %v, latest drift = %+v",
			m.Alarms(), w.FlippedSources, m.Latest().Drift)
	}

	// The offending window is in the flight recorder under the alarm's
	// deterministic trace id, parked in the failed ring.
	if drift.TraceID == "" {
		t.Fatal("alarm carries no trace id")
	}
	tr, ok := p.Flight().Get(drift.TraceID)
	if !ok {
		t.Fatalf("flight recorder lost alarm trace %q", drift.TraceID)
	}
	if tr.Status != qual.TraceStatusAlarm {
		t.Fatalf("alarm trace status = %q, want %q", tr.Status, qual.TraceStatusAlarm)
	}
	if len(tr.Runs) != 1 || len(tr.Runs[0].Events) != len(drift.Window) {
		t.Fatalf("alarm trace events = %+v, want window %v", tr.Runs, drift.Window)
	}

	// The verdict spill landed next to traces.jsonl and replays the run:
	// one verdict per published batch, the alarm at its recorded tick.
	spilled, err := jsonl.ReadFile[qual.Verdict](filepath.Join(dir, qual.SpillFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(spilled) != len(pubs) {
		t.Fatalf("spill has %d verdicts, want %d", len(spilled), len(pubs))
	}
	sv := spilled[drift.Tick]
	found := false
	for _, a := range sv.Alarms {
		if a.Kind == drift.Kind && a.Source == drift.Source && a.TraceID == drift.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("spilled verdict %d misses the alarm: %+v", drift.Tick, sv.Alarms)
	}
}

// TestPipelineQualityWorkersEquivalence: the verdict spill is byte-identical
// at EM/monitor worker counts 1 and 4 — the quality layer inherits the
// pipeline's determinism contract.
func TestPipelineQualityWorkersEquivalence(t *testing.T) {
	_, tweets := flipTweets(t, true)
	var spills [][]byte
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		p, _ := runQualityPipeline(t, tweets, workers, dir)
		raw, err := os.ReadFile(filepath.Join(dir, qual.SpillFile))
		if err != nil {
			t.Fatal(err)
		}
		spills = append(spills, raw)
		if p.Quality().Ticks() == 0 {
			t.Fatalf("workers=%d: no verdicts", workers)
		}
	}
	if !bytes.Equal(spills[0], spills[1]) {
		t.Fatalf("verdict spill differs between Workers 1 and 4:\n%s\n---\n%s", spills[0], spills[1])
	}
}

// TestServerQualityEndpoints: /debug/quality serves the full report,
// /statusz counts the alarms, and a quality-disabled pipeline answers 404 /
// -1 instead of fabricating zeros.
func TestServerQualityEndpoints(t *testing.T) {
	_, tweets := flipTweets(t, true)
	p, _ := runQualityPipeline(t, tweets, 1, t.TempDir())
	srv := NewServer(p)

	rec := get(t, srv, "/debug/quality")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/quality = %d: %s", rec.Code, rec.Body)
	}
	var rep qual.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Ticks == 0 || rep.Latest == nil {
		t.Fatalf("quality report = %+v", rep)
	}
	if len(rep.Alarms) != len(p.Quality().Alarms()) {
		t.Fatalf("report alarms = %d, monitor has %d", len(rep.Alarms), len(p.Quality().Alarms()))
	}

	st := get(t, srv, "/statusz")
	var status Status
	if err := json.Unmarshal(st.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.QualityAlarms != len(rep.Alarms) {
		t.Fatalf("statusz qualityAlarms = %d, want %d", status.QualityAlarms, len(rep.Alarms))
	}

	// Quality disabled: explicit absence, not zeros.
	_, plainTweets := testTweets(t, 60, 7)
	plain, err := New(context.Background(), &SliceSource{Tweets: plainTweets}, Options{
		Stream:          stream.Options{},
		BatchSize:       32,
		DisableShedding: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	plainSrv := NewServer(plain)
	if rec := get(t, plainSrv, "/debug/quality"); rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/quality without monitor = %d, want 404", rec.Code)
	}
	var plainStatus Status
	if err := json.Unmarshal(get(t, plainSrv, "/statusz").Body.Bytes(), &plainStatus); err != nil {
		t.Fatal(err)
	}
	if plainStatus.QualityAlarms != -1 {
		t.Fatalf("statusz qualityAlarms without monitor = %d, want -1", plainStatus.QualityAlarms)
	}
}
