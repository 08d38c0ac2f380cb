package ingest

import (
	"errors"
	"net/http"

	"depsense/internal/httpapi"
	"depsense/internal/obs"
)

// Server is the ingestion service's HTTP surface: live rankings and queue
// and staleness status on top of the operator routes every depsense server
// shares (httpapi.NewOpsMux: health, metrics, per-refit debug traces and the
// quality report). It reuses the httpapi request middleware, so access
// logging and the http_* metric families are identical across both servers.
type Server struct {
	p   *Pipeline
	mux *http.ServeMux
}

// NewServer wires the pipeline's HTTP surface. The middleware shares the
// pipeline's registry, logger, and clock.
func NewServer(p *Pipeline) *Server {
	s := &Server{p: p}
	mw := httpapi.NewMiddleware(p.reg, p.log, p.clock)
	s.mux = httpapi.NewOpsMux(mw, p.flight, p.qual, s.handleMetrics)
	mw.Route(s.mux, http.MethodGet, "/v1/rankings", s.handleRankings)
	mw.Route(s.mux, http.MethodGet, "/statusz", s.handleStatusz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

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
