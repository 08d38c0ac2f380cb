package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"depsense/internal/claims"
	"depsense/internal/core"
	"depsense/internal/depgraph"
	"depsense/internal/obs"
	"depsense/internal/randutil"
	"depsense/internal/stats"
	"depsense/internal/synthetic"
)

func TestEmptyEstimator(t *testing.T) {
	e := New(Options{})
	if _, err := e.Result(); !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData, got %v", err)
	}
	if _, err := e.Dataset(); !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData, got %v", err)
	}
	if _, err := e.AddBatch(nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty first batch: want ErrNoData, got %v", err)
	}
}

func TestBadEventsRejected(t *testing.T) {
	e := New(Options{})
	if _, err := e.AddBatch([]depgraph.Event{{Source: -1, Assertion: 0}}); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("want ErrBadEvent, got %v", err)
	}
	if err := e.ObserveFollow(-1, 0); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("want ErrBadEvent, got %v", err)
	}
}

// TestRejectedBatchLeavesStateUnchanged is the batch-atomicity regression
// test: a batch with one invalid event mid-batch must leave every piece of
// estimator state — events, id spaces, follow graph, warm-start parameters,
// latest result — bit-for-bit as it was. (The pre-fix code appended and
// grew per event before validating the rest, so the valid prefix leaked in.)
func TestRejectedBatchLeavesStateUnchanged(t *testing.T) {
	e := New(Options{})
	if err := e.ObserveFollow(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddBatch([]depgraph.Event{
		{Source: 0, Assertion: 0, Time: 1},
		{Source: 1, Assertion: 0, Time: 2},
		{Source: 2, Assertion: 1, Time: 3},
	}); err != nil {
		t.Fatal(err)
	}

	wantStats := e.Stats()
	wantEvents := append([]depgraph.Event(nil), e.events...)
	wantParams := e.params.Clone()
	wantLast, wantDS := e.last, e.lastDS
	wantGraphN := e.graph.N()

	// Valid prefix, invalid event mid-batch, valid suffix with ids that
	// would grow both id spaces if ingested.
	_, err := e.AddBatch([]depgraph.Event{
		{Source: 7, Assertion: 5, Time: 4},
		{Source: -1, Assertion: 0, Time: 5},
		{Source: 9, Assertion: 8, Time: 6},
	})
	if !errors.Is(err, ErrBadEvent) {
		t.Fatalf("want ErrBadEvent, got %v", err)
	}

	if got := e.Stats(); got != wantStats {
		t.Fatalf("stats changed after rejected batch: %+v, want %+v", got, wantStats)
	}
	if !reflect.DeepEqual(e.events, wantEvents) {
		t.Fatalf("events changed after rejected batch: %+v, want %+v", e.events, wantEvents)
	}
	if !reflect.DeepEqual(e.params, wantParams) {
		t.Fatal("warm-start parameters changed after rejected batch")
	}
	if e.last != wantLast || e.lastDS != wantDS {
		t.Fatal("latest result/dataset replaced after rejected batch")
	}
	if e.graph.N() != wantGraphN {
		t.Fatalf("graph grew to %d sources after rejected batch, want %d", e.graph.N(), wantGraphN)
	}

	// The estimator still works: resubmitting the fixed batch succeeds and
	// ingests all of it.
	if _, err := e.AddBatch([]depgraph.Event{
		{Source: 7, Assertion: 5, Time: 4},
		{Source: 9, Assertion: 8, Time: 6},
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats(); got.Sources != 10 || got.Assertions != 9 || got.Claims != 5 {
		t.Fatalf("post-fix stats = %+v", got)
	}
}

// TestFitTelemetry: warm/cold fit counts land in Stats and, through the
// injected clock, exact fit durations land in the attached registry.
func TestFitTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	now := time.Unix(0, 0)
	clock := func() time.Time {
		now = now.Add(250 * time.Millisecond) // each clock read advances 250ms
		return now
	}
	e := New(Options{Metrics: reg, Clock: clock})
	if _, err := e.AddBatch([]depgraph.Event{
		{Source: 0, Assertion: 0, Time: 1},
		{Source: 1, Assertion: 1, Time: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddBatch([]depgraph.Event{
		{Source: 1, Assertion: 0, Time: 3},
	}); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.Fits != 2 || st.ColdFits != 1 || st.WarmFits != 1 {
		t.Fatalf("fit stats = %+v", st)
	}
	for _, mode := range []string{"cold", "warm"} {
		if got := reg.Counter(MetricFits, "", obs.L("mode", mode)).Value(); got != 1 {
			t.Fatalf("fits{mode=%q} = %v, want 1", mode, got)
		}
		h := reg.Histogram(MetricFitSeconds, "", nil, obs.L("mode", mode))
		// Each fit spans exactly one 250ms clock step.
		if h.Count() != 1 || h.Sum() != 0.25 {
			t.Fatalf("fit duration{mode=%q}: count=%d sum=%v, want 1/0.25", mode, h.Count(), h.Sum())
		}
	}
	// Each dataset build spans one clock step too, outside the fit.
	if h := reg.Histogram(MetricBuildSeconds, "", nil); h.Count() != 2 || h.Sum() != 0.5 {
		t.Fatalf("build duration: count=%d sum=%v, want 2/0.5", h.Count(), h.Sum())
	}
}

// TestGrowSourcesKeepsGraph: growing the id space one follow at a time
// leaves the same graph — ancestor order included — and the same snapshot
// bytes as sizing it once up front.
func TestGrowSourcesKeepsGraph(t *testing.T) {
	follows := [][2]int{{1, 0}, {3, 2}, {3, 0}, {3, 1}, {6, 3}, {2, 6}, {9, 3}, {3, 8}}
	batch := []depgraph.Event{{Source: 0, Assertion: 0, Time: 1}, {Source: 3, Assertion: 0, Time: 2}, {Source: 9, Assertion: 1, Time: 3}}
	run := func(sizeFirst bool) *Estimator {
		e := New(Options{})
		if sizeFirst {
			e.growSources(10)
		}
		for _, f := range follows {
			if err := e.ObserveFollow(f[0], f[1]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		return e
	}
	grown, sized := run(false), run(true)
	if got := grown.graph.Ancestors(3); !reflect.DeepEqual(got, []int{2, 0, 1, 8}) {
		t.Fatalf("Ancestors(3) = %v, want observation order [2 0 1 8]", got)
	}
	for i := 0; i < 10; i++ {
		if !reflect.DeepEqual(grown.graph.Ancestors(i), sized.graph.Ancestors(i)) {
			t.Fatalf("source %d: ancestors %v, want %v", i, grown.graph.Ancestors(i), sized.graph.Ancestors(i))
		}
	}
	a, err := json.Marshal(grown.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sized.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\n%s", a, b)
	}
}

func TestIDSpacesGrow(t *testing.T) {
	e := New(Options{})
	if err := e.ObserveFollow(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddBatch([]depgraph.Event{
		{Source: 0, Assertion: 0, Time: 1},
		{Source: 1, Assertion: 0, Time: 2}, // dependent repeat
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Sources != 2 || st.Assertions != 1 || st.Claims != 2 || st.Fits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A later batch introduces new sources and assertions.
	if _, err := e.AddBatch([]depgraph.Event{
		{Source: 5, Assertion: 3, Time: 3},
	}); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Sources != 6 || st.Assertions != 4 || st.Fits != 2 {
		t.Fatalf("stats = %+v", st)
	}
	ds, err := e.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Dependent(1, 0) {
		t.Fatal("dependency lost across batches")
	}
}

// TestStreamingMatchesBatchAccuracy: feeding a world in batches must reach
// accuracy comparable to one cold batch fit on the same data.
func TestStreamingMatchesBatchAccuracy(t *testing.T) {
	cfg := synthetic.EstimatorConfig()
	cfg.Sources = 30
	cfg.Assertions = 120
	w, err := synthetic.Generate(cfg, randutil.New(21))
	if err != nil {
		t.Fatal(err)
	}
	// Serialize the world into timestamped events: roots first (time 0),
	// then leaves (time 1), matching generation order.
	var events []depgraph.Event
	for j := 0; j < w.Dataset.M(); j++ {
		dep := w.Dataset.ClaimDependent(j)
		for k, i := range w.Dataset.Claimants(j) {
			tm := int64(0)
			if dep[k] {
				tm = 1
			}
			events = append(events, depgraph.Event{Source: int(i), Assertion: j, Time: tm})
		}
	}

	est := New(Options{})
	for i := 0; i < w.Graph.N(); i++ {
		for _, anc := range w.Graph.Ancestors(i) {
			if err := est.ObserveFollow(i, anc); err != nil {
				t.Fatal(err)
			}
		}
	}
	const batches = 5
	per := (len(events) + batches - 1) / batches
	var lastAcc float64
	for b := 0; b < batches; b++ {
		lo := b * per
		hi := min(len(events), lo+per)
		if lo >= hi {
			break
		}
		r, err := est.AddBatch(events[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if b == batches-1 {
			cl, err := stats.Classify(r.Decisions(0.5), w.Truth)
			if err != nil {
				t.Fatal(err)
			}
			lastAcc = cl.Accuracy
		}
	}

	cold, err := core.RunCtx(context.Background(), mustDS(t, est), core.VariantExt, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clCold, err := stats.Classify(cold.Decisions(0.5), w.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if lastAcc < clCold.Accuracy-0.08 {
		t.Fatalf("streaming accuracy %.3f far below cold fit %.3f", lastAcc, clCold.Accuracy)
	}
	if lastAcc < 0.6 {
		t.Fatalf("streaming accuracy %.3f implausibly low", lastAcc)
	}
}

// TestWarmStartConverges: the warm-started refit after a tiny incremental
// batch should converge within the reduced iteration budget.
func TestWarmStartConverges(t *testing.T) {
	cfg := synthetic.DefaultConfig()
	w, err := synthetic.Generate(cfg, randutil.New(31))
	if err != nil {
		t.Fatal(err)
	}
	var events []depgraph.Event
	for j := 0; j < w.Dataset.M(); j++ {
		dep := w.Dataset.ClaimDependent(j)
		for k, i := range w.Dataset.Claimants(j) {
			tm := int64(0)
			if dep[k] {
				tm = 1
			}
			events = append(events, depgraph.Event{Source: int(i), Assertion: j, Time: tm})
		}
	}
	est := New(Options{})
	for i := 0; i < w.Graph.N(); i++ {
		for _, anc := range w.Graph.Ancestors(i) {
			_ = est.ObserveFollow(i, anc)
		}
	}
	if _, err := est.AddBatch(events[:len(events)-3]); err != nil {
		t.Fatal(err)
	}
	r, err := est.AddBatch(events[len(events)-3:])
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatal("warm-started refit did not converge within the incremental budget")
	}
	if r.Iterations > 60 {
		t.Fatalf("warm start took %d iterations", r.Iterations)
	}
}

func mustDS(t *testing.T, e *Estimator) *claims.Dataset {
	t.Helper()
	ds, err := e.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
