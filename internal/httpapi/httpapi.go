// Package httpapi exposes the fact-finding pipeline as a small HTTP
// service: POST a message stream, get back ranked assertions with
// credibility scores. It exists for deployments that want Apollo-style
// fact-finding behind a network interface rather than a CLI.
//
// Endpoints:
//
//	GET  /healthz         — liveness probe
//	GET  /v1/algorithms   — the available fact-finder names
//	POST /v1/factfind     — run the pipeline; see Request/Response
//	GET  /metrics         — Prometheus text exposition (unless disabled)
//	GET  /debug/runs      — flight-recorder index (recent run traces)
//	GET  /debug/runs/{id} — one run's full trace JSON
//
// Every endpoint runs behind the request middleware: per-endpoint
// request/status counters, latency histograms, an in-flight gauge, and
// request-id-tagged slog access logs. /v1/factfind additionally attaches an
// obs.HookExporter to the request context, so estimator iteration records
// (EM iterations, heuristic rounds) land in the same registry the /metrics
// endpoint serves — composed via runctx.MultiHook with a trace.Builder hook
// that records the same iterations, plus the pipeline stage timings, into a
// per-request trace. Finished traces land in an in-memory flight recorder
// (bounded rings of recent completed and failed runs, served by the /debug
// endpoints) and, when Options.TraceDir is set, are appended to a JSONL
// spill file for post-mortem analysis with cmd/sstrace.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/depgraph"
	"depsense/internal/obs"
	"depsense/internal/qual"
	"depsense/internal/serve"
	"depsense/internal/trace"
	"depsense/internal/tweetjson"
)

// Options tunes the server.
type Options struct {
	// MaxBodyBytes caps request bodies (default 32 MiB).
	MaxBodyBytes int64
	// DefaultTopK is the ranked output size when the request does not set
	// one (default 100).
	DefaultTopK int
	// Seed drives the estimators' initialization.
	Seed int64
	// ComputeTimeout bounds the pipeline compute per request (0 = no
	// limit). Requests that exceed it get a 503 with the progress the
	// estimator made before the deadline.
	ComputeTimeout time.Duration
	// Workers bounds the intra-request estimator parallelism (EM restart
	// fan-out). Results are bit-for-bit identical at any value; 0 or 1 runs
	// serial.
	Workers int
	// Metrics receives the server's telemetry and backs the /metrics
	// endpoint; nil creates a private registry (retrievable with
	// Server.Metrics).
	Metrics *obs.Registry
	// DisableMetrics removes the /metrics endpoint. Telemetry is still
	// recorded into the registry for programmatic access.
	DisableMetrics bool
	// Logger receives request-id-tagged access logs; nil discards them.
	Logger *slog.Logger
	// Clock supplies request/latency timestamps; nil means the wall
	// clock. Injected so middleware accounting is testable.
	Clock func() time.Time
	// TraceBuffer sets how many completed run traces the flight recorder
	// retains (failed/cancelled runs get an additional quarter-sized ring of
	// their own, at least trace.DefaultFailed). 0 selects
	// trace.DefaultCompleted.
	TraceBuffer int
	// TraceDir, when non-empty, appends every finished run trace to
	// TraceDir/traces.jsonl — the post-mortem spill read by cmd/sstrace.
	// The directory must exist; write failures are logged, never fatal.
	TraceDir string
	// CacheSize bounds the result cache in responses. 0 selects
	// DefaultCacheSize; negative disables caching entirely.
	CacheSize int
	// CacheTTL bounds how long a cached response may be replayed. 0 selects
	// DefaultCacheTTL; negative means entries never expire (LRU eviction
	// still bounds the footprint).
	CacheTTL time.Duration
	// MaxInFlight caps concurrently executing pipeline computations
	// (cache hits and coalesced followers don't count — they compute
	// nothing). 0 means unlimited.
	MaxInFlight int
	// QueueDepth bounds computations waiting for a compute slot when
	// MaxInFlight is saturated; beyond it requests are shed with 429.
	// Ignored when MaxInFlight is 0; 0 means no queue (shed immediately).
	QueueDepth int
}

// Server is the HTTP facade over the Apollo pipeline.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	reg     *obs.Registry
	log     *slog.Logger
	clock   func() time.Time
	mw      *Middleware
	flight  *trace.FlightRecorder
	qual    *qual.Monitor
	spillMu sync.Mutex // serializes appends to TraceDir/traces.jsonl

	// The serving layer: results keyed by content hash, concurrent
	// identical computations coalesced, computation bounded by admission.
	cache     *serve.Cache
	coalesce  serve.Group
	admission *serve.Admission
	// algorithms is the canonical finder name list, built once so
	// per-request resolution never constructs the nine-estimator roster.
	algorithms []string
	// testComputeHook, when set by tests, runs inside the admitted compute
	// section just before the pipeline executes — used to count and block
	// leader executions deterministically.
	testComputeHook func()
}

var _ http.Handler = (*Server)(nil)

// New builds the server.
func New(opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 32 << 20
	}
	if opts.DefaultTopK <= 0 {
		opts.DefaultTopK = 100
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	log := opts.Logger
	if log == nil {
		log = discardLogger()
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	s := &Server{opts: opts, mux: http.NewServeMux(), reg: reg, log: log, clock: clock,
		mw: NewMiddleware(reg, log, clock)}
	s.flight = trace.NewFlightRecorder(opts.TraceBuffer, traceFailedRetention(opts.TraceBuffer))
	// Estimation-quality monitoring (internal/qual), calibration-only:
	// each request fits an unrelated dataset, so the drift detectors (which
	// assume one evolving stream) and the amortized bound tracking are off;
	// what remains — ECE, cross-estimator disagreement, posterior
	// histograms — is meaningful per computation and cheap (one Voting
	// pass). Ticks count computed (non-cached) factfind results.
	s.qual = qual.NewMonitor(qual.Options{
		DisableDrift: true,
		BoundEvery:   -1,
		Metrics:      reg,
		Clock:        clock,
		Flight:       s.flight,
	})
	cacheSize, cacheTTL := opts.CacheSize, opts.CacheTTL
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	if cacheTTL == 0 {
		cacheTTL = DefaultCacheTTL
	}
	s.cache = serve.NewCache(cacheSize, cacheTTL)
	s.admission = serve.NewAdmission(opts.MaxInFlight, opts.QueueDepth,
		reg.Gauge(MetricComputeInFlight, "Pipeline computations holding a compute slot."),
		reg.Gauge(MetricComputeQueued, "Pipeline computations queued for a compute slot."))
	s.algorithms = baselines.ExtendedNames()
	// Every route is method-restricted by MethodOnly (405 + Allow header),
	// with instrumentation outermost so rejected methods stay counted.
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", MethodOnly(http.MethodGet, s.handleHealthz)))
	s.mux.HandleFunc("/v1/algorithms", s.instrument("/v1/algorithms", MethodOnly(http.MethodGet, s.handleAlgorithms)))
	s.mux.HandleFunc("/v1/factfind", s.instrument("/v1/factfind", MethodOnly(http.MethodPost, s.handleFactFind)))
	s.mux.HandleFunc("/debug/runs", s.instrument("/debug/runs", MethodOnly(http.MethodGet, s.handleRunsIndex)))
	s.mux.HandleFunc("/debug/runs/{id}", s.instrument("/debug/runs/{id}", MethodOnly(http.MethodGet, s.handleRunByID)))
	s.mux.HandleFunc("/debug/quality", s.instrument("/debug/quality", MethodOnly(http.MethodGet, s.handleQuality)))
	if !opts.DisableMetrics {
		s.mux.HandleFunc("/metrics", s.instrument("/metrics", MethodOnly(http.MethodGet, reg.Handler().ServeHTTP)))
	}
	return s
}

// Metrics returns the server's registry, for callers that want to render or
// extend it themselves (ssserve, tests).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Message is one input message.
type Message struct {
	// Source is the author's dense id in [0, Sources).
	Source int `json:"source"`
	// Time orders messages (any monotone integer scale).
	Time int64 `json:"time"`
	// Text is the message body.
	Text string `json:"text"`
}

// Request is the /v1/factfind payload.
type Request struct {
	// Sources is the source id space size. Ignored (derived) for
	// format "twitter-json".
	Sources int `json:"sources"`
	// Follows lists [follower, followee] pairs.
	Follows [][2]int `json:"follows"`
	// Messages is the stream, for the default format.
	Messages []Message `json:"messages"`
	// Archive carries a raw Twitter v1.1 archive (JSONL or array) when
	// Format is "twitter-json".
	Archive string `json:"archive,omitempty"`
	// Format selects the input format: "" (messages) or "twitter-json".
	Format string `json:"format,omitempty"`
	// Algorithm names the fact-finder (default "EM-Ext").
	Algorithm string `json:"algorithm,omitempty"`
	// TopK bounds the ranked output.
	TopK int `json:"topK,omitempty"`
}

// RankedAssertion is one output row.
type RankedAssertion struct {
	Assertion int     `json:"assertion"`
	Posterior float64 `json:"posterior"`
	Text      string  `json:"text"`
	Claims    int     `json:"claims"`
	Dependent int     `json:"dependentClaims"`
}

// Response is the /v1/factfind result.
type Response struct {
	Algorithm  string `json:"algorithm"`
	Sources    int    `json:"sources"`
	Assertions int    `json:"assertions"`
	Claims     int    `json:"claims"`
	Dependent  int    `json:"dependentClaims"`
	Converged  bool   `json:"converged"`
	Iterations int    `json:"iterations"`
	// Stopped is the run's stop reason: "converged", "iteration-cap",
	// "cancelled", or "deadline".
	Stopped string `json:"stopped,omitempty"`
	// TraceID names the run trace retained by the flight recorder; fetch the
	// full record at /debug/runs/{traceID}.
	TraceID string            `json:"traceID,omitempty"`
	Ranked  []RankedAssertion `json:"ranked"`
}

type apiError struct {
	Error string `json:"error"`
	// Stopped distinguishes compute-budget failures ("deadline",
	// "cancelled") from estimator failures (empty).
	Stopped string `json:"stopped,omitempty"`
	// Iterations reports the progress made before a compute-budget
	// failure.
	Iterations int `json:"iterations,omitempty"`
	// TraceID names the run trace retained by the flight recorder, when the
	// failure happened after compute started; the post-mortem record lives at
	// /debug/runs/{traceID}.
	TraceID string `json:"traceID,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"status":"ok"}`))
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"algorithms": s.algorithms})
}

// handleFactFind is the serving front door: decode and validate, then try
// the result cache, then coalesce into (or lead) the one pipeline run for
// this content hash. The computation itself lives in computeResult
// (serving.go), which also owns admission control and the deadline-aware
// budget check.
func (s *Server) handleFactFind(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var req Request
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// An oversized body is the client exceeding the configured limit,
		// not a malformed payload: report 413 with the limit, not a
		// generic 400.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	// A conforming payload is exactly one JSON object. Trailing data (a
	// second object, stray tokens) is a malformed request — and would also
	// poison the content-hash cache key, which covers only the decoded
	// fields — so reject it instead of silently ignoring it.
	if err := dec.Decode(&json.RawMessage{}); !errors.Is(err, io.EOF) {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest,
			errors.New("decode request: unexpected data after the JSON payload"))
		return
	}

	algorithm, ok := s.canonicalAlgorithm(req.Algorithm)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown algorithm %q", req.Algorithm))
		return
	}
	topK := req.TopK
	if topK <= 0 {
		topK = s.opts.DefaultTopK
	}

	key := s.resultKey(req, algorithm, topK)
	if resp, ok := s.cachedResponse(key); ok {
		s.reg.Counter(MetricCacheHits,
			"Factfind requests answered from the result cache.").Inc()
		writeServed(w, s.replayCached(r, resp, algorithm), "hit")
		return
	}
	// Every request the cache could not answer counts as a miss — leaders
	// and coalesced followers alike — so hits + misses equals the total of
	// validated requests.
	s.reg.Counter(MetricCacheMisses,
		"Factfind requests the result cache could not answer.").Inc()

	v, shared := s.coalesce.Do(key, func() any {
		return s.computeResult(r, req, algorithm, topK, key)
	})
	res, _ := v.(*servedResult)
	if res == nil {
		writeError(w, http.StatusInternalServerError, errors.New("internal serving failure"))
		return
	}
	state := "miss"
	if shared {
		s.reg.Counter(MetricCoalesced,
			"Factfind requests that attached to an in-flight identical computation.").Inc()
		state = "coalesced"
	}
	if res.fromCache {
		// The leader's double-check found the result cached between this
		// request's miss and its election.
		state = "hit"
	}
	writeServed(w, res, state)
}

func (s *Server) buildInput(req Request) (apollo.Input, error) {
	if strings.EqualFold(req.Format, "twitter-json") {
		tweets, err := tweetjson.Parse(strings.NewReader(req.Archive))
		if err != nil {
			return apollo.Input{}, err
		}
		in, _, err := tweetjson.ToPipeline(tweets)
		return in, err
	}
	graph := depgraph.NewGraph(req.Sources)
	for _, e := range req.Follows {
		if err := graph.AddFollow(e[0], e[1]); err != nil {
			return apollo.Input{}, err
		}
	}
	msgs := make([]apollo.Message, len(req.Messages))
	for i, m := range req.Messages {
		msgs[i] = apollo.Message{Source: m.Source, Time: m.Time, Text: m.Text}
	}
	return apollo.Input{NumSources: req.Sources, Messages: msgs, Graph: graph}, nil
}

// discardLogger is the default when no logger is injected.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}
