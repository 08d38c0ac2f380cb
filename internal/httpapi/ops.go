package httpapi

import (
	"errors"
	"net/http"
	"strconv"

	"depsense/internal/qual"
	"depsense/internal/trace"
)

// NewOpsMux returns a mux carrying the operator routes every depsense
// server exposes, each GET-only and instrumented by mw:
//
//	GET /healthz          — liveness probe
//	GET /metrics          — Prometheus text exposition; mounted only when
//	                        metrics is non-nil
//	GET /debug/runs       — flight-recorder index, newest first
//	GET /debug/runs/{id}  — one retained trace in full
//	GET /debug/quality    — the quality report (latest verdict plus every
//	                        alarm); 404 when q is nil, 503 before the first
//	                        verdict
//
// Servers add their own routes to the returned mux with mw.Route.
func NewOpsMux(mw *Middleware, flight *trace.FlightRecorder, q *qual.Monitor, metrics http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	get := func(path string, h http.HandlerFunc) { mw.Route(mux, http.MethodGet, path, h) }
	get("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if metrics != nil {
		get("/metrics", metrics)
	}
	get("/debug/runs", func(w http.ResponseWriter, r *http.Request) {
		added, evicted := flight.Stats()
		writeJSON(w, http.StatusOK, struct {
			Runs    []trace.Summary `json:"runs"`
			Added   uint64          `json:"added"`
			Evicted uint64          `json:"evicted"`
		}{Runs: flight.Index(), Added: added, Evicted: evicted})
	})
	get("/debug/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		t, ok := flight.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("no retained trace with id "+strconv.Quote(id)))
			return
		}
		writeJSON(w, http.StatusOK, t)
	})
	get("/debug/quality", func(w http.ResponseWriter, r *http.Request) {
		if q == nil {
			writeError(w, http.StatusNotFound, errors.New("quality monitoring disabled"))
			return
		}
		rep := q.Report()
		if rep.Latest == nil {
			writeError(w, http.StatusServiceUnavailable, errors.New("no quality verdict yet"))
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})
	return mux
}

// Route registers h on mux at path, restricted to method by MethodOnly (405
// plus an Allow header otherwise), with the instrumentation outermost so
// rejected methods stay counted.
func (m *Middleware) Route(mux *http.ServeMux, method, path string, h http.HandlerFunc) {
	mux.HandleFunc(path, m.Instrument(path, MethodOnly(method, h)))
}
