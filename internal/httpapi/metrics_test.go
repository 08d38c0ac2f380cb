package httpapi

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"depsense/internal/obs"
	"depsense/internal/runctx"
)

// scrape GETs /metrics and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one sample line's value from an exposition body.
func metricValue(t *testing.T, body, line string) string {
	t.Helper()
	v := optionalMetricValue(body, line)
	if v == "" {
		t.Fatalf("metric line %q not found in:\n%s", line, body)
	}
	return v
}

// optionalMetricValue is metricValue for series that may be absent ("").
func optionalMetricValue(body, line string) string {
	for _, l := range strings.Split(body, "\n") {
		if strings.HasPrefix(l, line+" ") {
			return strings.TrimPrefix(l, line+" ")
		}
	}
	return ""
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad metric value %q: %v", s, err)
	}
	return v
}

// TestMetricsEndpoint exercises /v1/factfind and checks that /metrics
// reports request counts by endpoint/status and estimator iteration/stop
// telemetry matching the response the API returned.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()

	req := sampleRequest()
	req.Algorithm = "EM-Ext"
	resp, body := postJSON(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factfind status %d: %s", resp.StatusCode, body)
	}
	var out Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}

	m := scrape(t, ts.URL)
	if got := metricValue(t, m, `depsense_http_requests_total{code="200",endpoint="/v1/factfind"}`); got != "1" {
		t.Fatalf("factfind request count = %s, want 1", got)
	}
	// The algorithm the API reported must have finished exactly one run
	// with the response's stop reason.
	if got := metricValue(t, m,
		`depsense_estimator_runs_total{algorithm="EM-Ext",stopped="`+out.Stopped+`"}`); got != "1" {
		t.Fatalf("runs{EM-Ext,%s} = %s, want 1", out.Stopped, got)
	}
	// Exported iteration totals match the response's Iterations. EM-Ext's
	// auto mode stages through EM-Social on sparse data (DepModePlugin), so
	// the units surface under both variant names; the sum is the run.
	iters := 0.0
	for _, alg := range []string{"EM-Ext", "EM-Social"} {
		if v := optionalMetricValue(m, `depsense_estimator_iterations_total{algorithm="`+alg+`"}`); v != "" {
			iters += parseFloat(t, v)
		}
	}
	if iters != float64(out.Iterations) {
		t.Fatalf("exported iterations = %v, response reported %d", iters, out.Iterations)
	}
	// Pipeline stage timing: all five stages observed once.
	for _, stage := range []string{"ingest", "cluster", "build", "fit", "rank"} {
		if got := metricValue(t, m,
			`depsense_pipeline_stage_duration_seconds_count{stage="`+stage+`"}`); got != "1" {
			t.Fatalf("stage %q observation count = %s, want 1", stage, got)
		}
	}
	// In-flight settles back to zero once the scrape is the only request.
	if got := metricValue(t, m, "depsense_http_in_flight_requests"); got != "1" {
		// The scrape itself is in flight while rendering.
		t.Fatalf("in-flight during scrape = %s, want 1", got)
	}
}

// TestMiddlewareAccounting checks status/latency accounting across
// endpoints and statuses, with an injected clock pinning the latency sums.
func TestMiddlewareAccounting(t *testing.T) {
	now := time.Unix(0, 0)
	srv := New(Options{
		Clock: func() time.Time {
			now = now.Add(50 * time.Millisecond)
			return now
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// One 405 on the same endpoint.
	resp, err := http.Post(ts.URL+"/healthz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	reg := srv.Metrics()
	if got := reg.Counter(MetricRequests, "", obs.L("endpoint", "/healthz"), obs.L("code", "200")).Value(); got != 3 {
		t.Fatalf("healthz 200 count = %v, want 3", got)
	}
	if got := reg.Counter(MetricRequests, "", obs.L("endpoint", "/healthz"), obs.L("code", "405")).Value(); got != 1 {
		t.Fatalf("healthz 405 count = %v, want 1", got)
	}
	h := reg.Histogram(MetricRequestSeconds, "", nil, obs.L("endpoint", "/healthz"))
	// Four requests, each spanning exactly one 50ms clock step.
	if h.Count() != 4 || h.Sum() != 0.2 {
		t.Fatalf("healthz latency histogram count=%d sum=%v, want 4/0.2", h.Count(), h.Sum())
	}
	if got := reg.Gauge(MetricInFlight, "").Value(); got != 0 {
		t.Fatalf("in-flight after quiesce = %v, want 0", got)
	}
}

// TestDefaultLoggerDisabled: a middleware or server built without a logger
// reports every level disabled, so an access-log call returns before it
// captures the caller or formats a record — also through With and
// WithGroup.
func TestDefaultLoggerDisabled(t *testing.T) {
	mw := NewMiddleware(nil, nil, nil)
	for name, log := range map[string]*slog.Logger{
		"middleware": mw.Log,
		"server":     New(Options{}).log,
		"with":       mw.Log.With("k", "v"),
		"group":      mw.Log.WithGroup("g"),
	} {
		for _, level := range []slog.Level{math.MinInt, slog.LevelDebug, slog.LevelInfo,
			slog.LevelWarn, slog.LevelError, math.MaxInt} {
			if log.Enabled(context.Background(), level) {
				t.Errorf("%s logger enabled at level %v", name, level)
			}
		}
	}
}

// TestMetricsDeterminism: the same request served at Workers: 1 and
// Workers: 4 must produce identical counter and gauge values — the
// parallel-determinism contract extended to telemetry. Wall-clock latency
// histograms are excluded (duration, not determinism).
func TestMetricsDeterminism(t *testing.T) {
	run := func(workers int) string {
		srv := New(Options{Workers: workers})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		req := sampleRequest()
		req.Algorithm = "EM-Ext"
		resp, body := postJSON(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d status %d: %s", workers, resp.StatusCode, body)
		}
		return scrape(t, ts.URL)
	}
	filter := func(m string) string {
		var keep []string
		for _, l := range strings.Split(m, "\n") {
			if strings.Contains(l, "_seconds") {
				continue
			}
			keep = append(keep, l)
		}
		return strings.Join(keep, "\n")
	}
	m1, m4 := filter(run(1)), filter(run(4))
	if m1 != m4 {
		t.Fatalf("metrics differ between Workers 1 and 4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", m1, m4)
	}
}

// TestDisableMetrics: the endpoint disappears, telemetry keeps recording.
func TestDisableMetrics(t *testing.T) {
	srv := New(Options{DisableMetrics: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics status %d, want 404 when disabled", resp.StatusCode)
	}
	r2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if got := srv.Metrics().Counter(MetricRequests, "",
		obs.L("endpoint", "/healthz"), obs.L("code", "200")).Value(); got != 1 {
		t.Fatalf("healthz count with metrics disabled = %v, want 1", got)
	}
}

// TestComputeDeadlineStopReasonExported: a 503 deadline response leaves a
// matching stop-reason counter behind.
func TestComputeDeadlineStopReasonExported(t *testing.T) {
	srv := New(Options{ComputeTimeout: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	req := sampleRequest()
	req.Algorithm = "EM-Ext"
	resp, _ := postJSON(t, ts.URL, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	reg := srv.Metrics()
	if got := reg.Counter(MetricComputeExhausted, "",
		obs.L("reason", runctx.StopDeadline)).Value(); got != 1 {
		t.Fatalf("compute-exhausted{deadline} = %v, want 1", got)
	}
	if got := reg.Counter(MetricRequests, "",
		obs.L("endpoint", "/v1/factfind"), obs.L("code", "503")).Value(); got != 1 {
		t.Fatalf("503 request counter = %v, want 1", got)
	}
}
