package httpapi

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"depsense/internal/apollo"
	"depsense/internal/obs"
)

// Metric names recorded by the server (the estimator-level names live in
// internal/obs, the stream-level names in internal/stream; DESIGN.md §10
// has the full catalog).
const (
	// MetricRequests counts requests by endpoint and status code.
	MetricRequests = "depsense_http_requests_total"
	// MetricRequestSeconds is the request-latency histogram by endpoint.
	MetricRequestSeconds = "depsense_http_request_duration_seconds"
	// MetricInFlight gauges the requests currently being served.
	MetricInFlight = "depsense_http_in_flight_requests"
	// MetricStageSeconds is the pipeline per-stage duration histogram
	// (ingest / cluster / build / fit / rank).
	MetricStageSeconds = "depsense_pipeline_stage_duration_seconds"
	// MetricComputeExhausted counts /v1/factfind requests that returned
	// 503 because the compute budget ran out (or the client vanished),
	// labeled by the stop reason ("deadline" / "cancelled"). Unlike the
	// estimator-level obs.MetricRuns, this fires even when the budget
	// expired before the estimator started.
	MetricComputeExhausted = "depsense_http_compute_exhausted_total"
)

// Middleware is the request instrumentation shared by every depsense HTTP
// surface (this package's fact-finding server, the ingestion service's
// status server): per-endpoint request/status counters, a latency
// histogram, an in-flight gauge, and request-id-tagged access logging. It
// exists as a standalone type so thin servers can reuse the exact metric
// names and logging shape without importing the whole fact-finding API.
type Middleware struct {
	// Reg receives the request metrics; required.
	Reg *obs.Registry
	// Log receives one access line per request; required (use a discard
	// handler to silence).
	Log *slog.Logger
	// Clock supplies request timestamps; required, injected per the
	// clocked-zone contract.
	Clock func() time.Time

	nextReqID atomic.Uint64
}

// NewMiddleware wires the instrumentation stack; nil registry, logger, or
// clock select a fresh registry, a wall clock, and a discard logger via the
// same defaults New applies.
func NewMiddleware(reg *obs.Registry, log *slog.Logger, clock func() time.Time) *Middleware {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if log == nil {
		log = DiscardLogger()
	}
	if clock == nil {
		clock = time.Now
	}
	return &Middleware{Reg: reg, Log: log, Clock: clock}
}

// reqIDKey carries the middleware-assigned request id through the request
// context, so handlers (and the traces they record) share the id the access
// log prints.
type reqIDKey struct{}

// RequestID returns the middleware-assigned id for the request, allocating
// one when the handler runs outside Instrument (direct handler tests).
func (m *Middleware) RequestID(r *http.Request) uint64 {
	if id, ok := r.Context().Value(reqIDKey{}).(uint64); ok {
		return id
	}
	return m.nextReqID.Add(1)
}

// statusRecorder captures the status code and body size a handler writes,
// defaulting to 200 when the handler never calls WriteHeader explicitly.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Instrument wraps a handler with the request middleware. The endpoint
// label is the registered route, never the raw URL, so label cardinality
// stays bounded.
func (m *Middleware) Instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := m.nextReqID.Add(1)
		start := m.Clock()
		inFlight := m.Reg.Gauge(MetricInFlight, "Requests currently being served.")
		inFlight.Inc()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
		h(rec, r)
		inFlight.Dec()
		elapsed := m.Clock().Sub(start)

		m.Reg.Counter(MetricRequests, "HTTP requests by endpoint and status code.",
			obs.L("endpoint", endpoint), obs.L("code", strconv.Itoa(rec.status))).Inc()
		m.Reg.Histogram(MetricRequestSeconds, "HTTP request latency in seconds by endpoint.",
			nil, obs.L("endpoint", endpoint)).Observe(elapsed.Seconds())
		m.Log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.Uint64("id", id),
			slog.String("method", r.Method),
			slog.String("endpoint", endpoint),
			slog.Int("status", rec.status),
			slog.Int64("bytes", rec.bytes),
			slog.Duration("elapsed", elapsed),
		)
	}
}

// requestID delegates to the shared middleware.
func (s *Server) requestID(r *http.Request) uint64 { return s.mw.RequestID(r) }

// recordStages exports the pipeline's per-stage timings; partial runs
// carry only the stages they completed.
func (s *Server) recordStages(stages []apollo.StageTiming) {
	for _, st := range stages {
		s.reg.Histogram(MetricStageSeconds, helpStageSeconds,
			nil, obs.L("stage", st.Stage)).Observe(st.Duration.Seconds())
	}
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// WriteError writes err as the standard {"error": ...} JSON body.
func WriteError(w http.ResponseWriter, status int, err error) { writeError(w, status, err) }
