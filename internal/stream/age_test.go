package stream

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"depsense/internal/depgraph"
	"depsense/internal/obs"
)

// metricsBody renders the registry as the /metrics endpoint would.
func metricsBody(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// TestLastRefitAgeGauge pins the age gauge's lifecycle under an injected
// clock: absent before the first fit (no fabricated zero), zero right after
// a fit, growing with wall time between fits, and reset to zero by the next
// refit.
func TestLastRefitAgeGauge(t *testing.T) {
	now := time.Unix(1700000000, 0)
	reg := obs.NewRegistry()
	e := New(Options{
		Metrics: reg,
		Clock:   func() time.Time { return now },
	})

	// Before any fit: ExportGauges must not publish the age series at all —
	// a 0 here would read as "just refitted" on a service that never fit.
	e.ExportGauges()
	if body := metricsBody(t, reg); strings.Contains(body, MetricLastRefitAge) {
		t.Fatalf("age gauge published before any fit:\n%s", body)
	}

	batch := []depgraph.Event{
		{Source: 0, Assertion: 0, Time: 1},
		{Source: 1, Assertion: 0, Time: 2},
		{Source: 2, Assertion: 1, Time: 3},
	}
	if _, err := e.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	age := reg.Gauge(MetricLastRefitAge, "")
	if got := age.Value(); got != 0 {
		t.Fatalf("age right after fit = %v, want 0 (clock frozen)", got)
	}

	// Time passes with no refit: a scrape-time ExportGauges reports the
	// true staleness.
	now = now.Add(42 * time.Second)
	e.ExportGauges()
	if got := age.Value(); got != 42 {
		t.Fatalf("age 42s after fit = %v, want 42", got)
	}

	// A new refit resets the age to zero even though the clock advanced.
	now = now.Add(17 * time.Second)
	if _, err := e.AddBatch([]depgraph.Event{{Source: 0, Assertion: 1, Time: 4}}); err != nil {
		t.Fatal(err)
	}
	if got := age.Value(); got != 0 {
		t.Fatalf("age after second fit = %v, want reset to 0", got)
	}

	// A clock that jumps backwards clamps at zero instead of going
	// negative.
	now = now.Add(-time.Hour)
	e.ExportGauges()
	if got := age.Value(); got != 0 {
		t.Fatalf("age after backwards clock jump = %v, want clamp to 0", got)
	}
}
