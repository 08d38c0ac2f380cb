package ingest

import (
	"errors"
	"net/http"
	"strconv"

	"depsense/internal/httpapi"
	"depsense/internal/obs"
	"depsense/internal/trace"
)

// Server is the ingestion service's HTTP surface: live rankings, queue and
// staleness status, metrics, and per-refit debug traces. It reuses the
// httpapi request middleware, so access logging and the http_* metric
// families are identical across both depsense servers.
type Server struct {
	p   *Pipeline
	mw  *httpapi.Middleware
	mux *http.ServeMux
}

// NewServer wires the pipeline's HTTP surface. The middleware shares the
// pipeline's registry, logger, and clock.
func NewServer(p *Pipeline) *Server {
	s := &Server{
		p:   p,
		mw:  httpapi.NewMiddleware(p.reg, p.log, p.clock),
		mux: http.NewServeMux(),
	}
	// Every route is GET-only via httpapi.MethodOnly (405 + Allow header),
	// with instrumentation outermost so rejected methods stay counted.
	get := func(path string, h http.HandlerFunc) {
		s.mux.HandleFunc(path, s.mw.Instrument(path, httpapi.MethodOnly(http.MethodGet, h)))
	}
	get("/healthz", s.handleHealthz)
	get("/v1/rankings", s.handleRankings)
	get("/statusz", s.handleStatusz)
	get("/debug/runs", s.handleRunsIndex)
	get("/debug/runs/{id}", s.handleRunByID)
	get("/debug/quality", s.handleQuality)
	get("/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleRankings serves the latest published ranking, 503 before the first
// committed batch.
func (s *Server) handleRankings(w http.ResponseWriter, r *http.Request) {
	pub := s.p.Published()
	if pub == nil {
		httpapi.WriteError(w, http.StatusServiceUnavailable, errors.New("no ranking published yet"))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, pub)
}

// Status is the /statusz payload: the operational signals (queue pressure,
// drop counts, snapshot staleness) next to the stream's logical progress.
type Status struct {
	// Queues reports depth/capacity per bounded queue; depths are live
	// channel occupancy.
	Queues map[string]QueueStatus `json:"queues"`
	// Accepted / Dropped are the collector's cumulative tweet outcomes;
	// Batches the committed batch count.
	Accepted float64 `json:"accepted"`
	Dropped  float64 `json:"dropped"`
	Batches  float64 `json:"batches"`
	// SnapshotAgeSeconds is time since the last persisted snapshot
	// (negative when persistence is disabled or nothing is snapshotted
	// yet).
	SnapshotAgeSeconds float64 `json:"snapshotAgeSeconds"`
	// Published mirrors the latest ranking's header (nil before the
	// first batch).
	Published *Published `json:"published,omitempty"`
	// QualityAlarms counts the quality alarms fired so far (-1 when quality
	// monitoring is disabled); the latest verdict rides on
	// Published.Quality and the full view on /debug/quality.
	QualityAlarms int `json:"qualityAlarms"`
}

// QueueStatus is one bounded queue's pressure reading.
type QueueStatus struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, s.status())
}

func (s *Server) status() Status {
	p := s.p
	st := Status{
		Queues:             map[string]QueueStatus{},
		Accepted:           p.reg.Counter(MetricTweets, "", obs.L("outcome", "accepted")).Value(),
		Dropped:            p.reg.Counter(MetricTweets, "", obs.L("outcome", "dropped")).Value(),
		Batches:            p.reg.Counter(MetricBatches, "").Value(),
		SnapshotAgeSeconds: -1,
		Published:          p.Published(),
		QualityAlarms:      -1,
	}
	if p.qual != nil {
		st.QualityAlarms = len(p.qual.Alarms())
	}
	if p.rawCh != nil {
		st.Queues["raw"] = QueueStatus{Depth: len(p.rawCh), Capacity: cap(p.rawCh)}
	}
	if p.batchCh != nil {
		st.Queues["batch"] = QueueStatus{Depth: len(p.batchCh), Capacity: cap(p.batchCh)}
	}
	if last := p.lastSnapshotNS.Load(); last != 0 {
		st.SnapshotAgeSeconds = float64(p.clock().UnixNano()-last) / 1e9
		if st.SnapshotAgeSeconds < 0 {
			st.SnapshotAgeSeconds = 0
		}
	}
	return st
}

// handleMetrics refreshes the scrape-time gauges (queue depths, snapshot
// age) and serves the registry. The stream-level gauges refresh per fit;
// between fits they read as of the last committed batch.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := s.p
	if p.rawCh != nil {
		p.reg.Gauge(MetricQueueDepth, "Bounded inter-stage queue depth.",
			obs.L("queue", "raw")).Set(float64(len(p.rawCh)))
	}
	if p.batchCh != nil {
		p.reg.Gauge(MetricQueueDepth, "Bounded inter-stage queue depth.",
			obs.L("queue", "batch")).Set(float64(len(p.batchCh)))
	}
	p.refreshSnapshotAge()
	p.reg.Handler().ServeHTTP(w, r)
}

// handleQuality serves the estimation-quality report: the latest verdict
// plus the cumulative alarm history. 404 when quality monitoring is
// disabled, 503 before the first refit.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	m := s.p.Quality()
	if m == nil {
		httpapi.WriteError(w, http.StatusNotFound, errors.New("quality monitoring disabled"))
		return
	}
	rep := m.Report()
	if rep.Latest == nil {
		httpapi.WriteError(w, http.StatusServiceUnavailable, errors.New("no refit observed yet"))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, rep)
}

// handleRunsIndex serves the flight recorder's refit-trace index, newest
// first.
func (s *Server) handleRunsIndex(w http.ResponseWriter, r *http.Request) {
	added, evicted := s.p.flight.Stats()
	httpapi.WriteJSON(w, http.StatusOK, struct {
		Runs    []trace.Summary `json:"runs"`
		Added   uint64          `json:"added"`
		Evicted uint64          `json:"evicted"`
	}{Runs: s.p.flight.Index(), Added: added, Evicted: evicted})
}

// handleRunByID serves one retained refit trace in full.
func (s *Server) handleRunByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.p.flight.Get(id)
	if !ok {
		httpapi.WriteError(w, http.StatusNotFound, errors.New("no retained trace with id "+strconv.Quote(id)))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, t)
}
