package ingest

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"depsense/internal/core"
	"depsense/internal/httpapi"
	"depsense/internal/stream"
	"depsense/internal/trace"
)

func servedPipeline(t *testing.T) (*Pipeline, *Server) {
	t.Helper()
	_, tweets := testTweets(t, 60, 7)
	p, err := New(context.Background(), &SliceSource{Tweets: tweets}, Options{
		Stream:          stream.Options{EM: core.Options{Seed: 5}},
		BatchSize:       32,
		DisableShedding: true,
		Dir:             t.TempDir(),
		SnapshotEvery:   2,
		TraceBuffer:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, NewServer(p)
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestServerRankingsLifecycle(t *testing.T) {
	p, srv := servedPipeline(t)

	// Before any batch: healthy, but no ranking.
	if rec := get(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d", rec.Code)
	}
	if rec := get(t, srv, "/v1/rankings"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/v1/rankings before first batch = %d, want 503", rec.Code)
	}

	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	rec := get(t, srv, "/v1/rankings")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/rankings = %d: %s", rec.Code, rec.Body)
	}
	var pub Published
	if err := json.Unmarshal(rec.Body.Bytes(), &pub); err != nil {
		t.Fatal(err)
	}
	if len(pub.Ranked) == 0 || pub.Tweets == 0 {
		t.Fatalf("published ranking is empty: %+v", pub)
	}
	want := p.Published()
	if pub.Batch != want.Batch || pub.Fits != want.Fits {
		t.Fatalf("served ranking (batch %d) != published (batch %d)", pub.Batch, want.Batch)
	}

	// POST is rejected.
	post := httptest.NewRecorder()
	srv.ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/v1/rankings", nil))
	if post.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/rankings = %d, want 405", post.Code)
	}
}

// TestServerMethodNotAllowed: every ingest route answers a wrong method
// with 405, the RFC 9110 Allow header, and a JSON error naming the allowed
// method — the same contract as httpapi's routes.
func TestServerMethodNotAllowed(t *testing.T) {
	_, srv := servedPipeline(t)
	for _, path := range []string{
		"/healthz", "/v1/rankings", "/statusz", "/debug/runs", "/debug/runs/some-id",
		"/debug/quality", "/metrics",
	} {
		for _, method := range []string{http.MethodPost, http.MethodDelete} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, rec.Code)
				continue
			}
			if got := rec.Header().Get("Allow"); got != http.MethodGet {
				t.Errorf("%s %s: Allow = %q, want GET", method, path, got)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, http.MethodGet) {
				t.Errorf("%s %s: body %q does not name the allowed method", method, path, rec.Body)
			}
		}
	}
}

func TestServerStatusz(t *testing.T) {
	p, srv := servedPipeline(t)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := get(t, srv, "/statusz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/statusz = %d: %s", rec.Code, rec.Body)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted == 0 || st.Dropped != 0 || st.Batches == 0 {
		t.Fatalf("statusz counters: %+v", st)
	}
	if st.Queues["raw"].Capacity != 1024 || st.Queues["batch"].Capacity != 4 {
		t.Fatalf("statusz queues: %+v", st.Queues)
	}
	if st.SnapshotAgeSeconds < 0 {
		t.Fatalf("snapshot age = %v, want >= 0 after a graceful run", st.SnapshotAgeSeconds)
	}
	if st.Published == nil {
		t.Fatal("statusz has no published header")
	}
}

func TestServerMetricsAndDebugRuns(t *testing.T) {
	p, srv := servedPipeline(t)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A completed request first, so the http_* request series exist.
	if rec := get(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d", rec.Code)
	}
	rec := get(t, srv, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, name := range []string{
		MetricTweets, MetricBatches, MetricQueueDepth, MetricQueueCapacity,
		MetricSnapshots, MetricSnapshotAge,
		stream.MetricSources, stream.MetricLastRefitAge,
		httpapi.MetricRequests,
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}

	// The flight recorder serves per-refit traces.
	recIdx := get(t, srv, "/debug/runs")
	if recIdx.Code != http.StatusOK {
		t.Fatalf("/debug/runs = %d", recIdx.Code)
	}
	var idx struct {
		Runs []trace.Summary `json:"runs"`
	}
	if err := json.Unmarshal(recIdx.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Runs) == 0 {
		t.Fatal("/debug/runs is empty after a run")
	}
	one := get(t, srv, "/debug/runs/"+idx.Runs[0].ID)
	if one.Code != http.StatusOK {
		t.Fatalf("/debug/runs/{id} = %d", one.Code)
	}
	if miss := get(t, srv, "/debug/runs/nope"); miss.Code != http.StatusNotFound {
		t.Fatalf("/debug/runs/nope = %d, want 404", miss.Code)
	}
}

// TestServerStatuszSnapshotAgeClock pins the snapshot-age plumbing under an
// injected clock: zero right after the run's final snapshot (the clock
// never moved), the true staleness once time passes, and the same value
// republished into the gauge by a /metrics scrape.
func TestServerStatuszSnapshotAgeClock(t *testing.T) {
	var nowNS atomic.Int64
	nowNS.Store(time.Unix(1700000000, 0).UnixNano())
	clock := func() time.Time { return time.Unix(0, nowNS.Load()) }

	_, tweets := testTweets(t, 60, 7)
	p, err := New(context.Background(), &SliceSource{Tweets: tweets}, Options{
		Stream:          stream.Options{EM: core.Options{Seed: 5}},
		BatchSize:       32,
		DisableShedding: true,
		Dir:             t.TempDir(),
		SnapshotEvery:   2,
		Clock:           clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p)

	// Before any snapshot: explicit -1, not a fabricated zero.
	var st Status
	if err := json.Unmarshal(get(t, srv, "/statusz").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.SnapshotAgeSeconds != -1 {
		t.Fatalf("snapshot age before any snapshot = %v, want -1", st.SnapshotAgeSeconds)
	}

	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The clock never advanced, so the final snapshot is zero seconds old.
	if err := json.Unmarshal(get(t, srv, "/statusz").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.SnapshotAgeSeconds != 0 {
		t.Fatalf("snapshot age right after run = %v, want 0", st.SnapshotAgeSeconds)
	}

	// Time passes with no new snapshot: /statusz reports the staleness and
	// a /metrics scrape republishes it into the gauge.
	nowNS.Add(int64(42 * time.Second))
	if err := json.Unmarshal(get(t, srv, "/statusz").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.SnapshotAgeSeconds != 42 {
		t.Fatalf("snapshot age 42s later = %v, want 42", st.SnapshotAgeSeconds)
	}
	if rec := get(t, srv, "/metrics"); rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if got := p.reg.Gauge(MetricSnapshotAge, "").Value(); got != 42 {
		t.Fatalf("snapshot-age gauge after scrape = %v, want 42", got)
	}

	// A backwards clock jump clamps at zero instead of going negative.
	nowNS.Add(-int64(time.Hour))
	if err := json.Unmarshal(get(t, srv, "/statusz").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.SnapshotAgeSeconds != 0 {
		t.Fatalf("snapshot age after backwards jump = %v, want clamp to 0", st.SnapshotAgeSeconds)
	}
}
