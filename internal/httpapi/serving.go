package httpapi

import (
	"bufio"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/core"
	"depsense/internal/obs"
	"depsense/internal/qual"
	"depsense/internal/runctx"
	"depsense/internal/serve"
	"depsense/internal/trace"
)

// Serving-layer metric names (the request-level names live in
// middleware.go, the estimator-level names in internal/obs).
const (
	// MetricCacheHits counts factfind requests answered from the result
	// cache without any computation.
	MetricCacheHits = "depsense_serve_cache_hits_total"
	// MetricCacheMisses counts factfind requests that could not be
	// answered from the cache (leaders and coalesced followers alike);
	// hits + misses equals the validated request total.
	MetricCacheMisses = "depsense_serve_cache_misses_total"
	// MetricCacheEntries gauges the result cache's current size.
	MetricCacheEntries = "depsense_serve_cache_entries"
	// MetricCoalesced counts requests that attached to another request's
	// in-flight computation instead of starting their own.
	MetricCoalesced = "depsense_serve_coalesced_requests_total"
	// MetricShed counts computations rejected by admission control, by
	// reason: "queue-full" (429) or "budget" (503, remaining deadline
	// cannot cover the observed p50 fit cost).
	MetricShed = "depsense_serve_shed_total"
	// MetricComputeInFlight gauges computations holding a compute slot.
	MetricComputeInFlight = "depsense_serve_compute_in_flight"
	// MetricComputeQueued gauges computations waiting for a compute slot.
	MetricComputeQueued = "depsense_serve_compute_queued"
)

// Serving-layer defaults, applied by New when the options are zero.
const (
	// DefaultCacheSize is the result-cache capacity in responses.
	DefaultCacheSize = 256
	// DefaultCacheTTL is how long a cached response stays servable.
	DefaultCacheTTL = 5 * time.Minute
)

// helpStageSeconds is shared between the stage-timing recorder and the
// deadline-admission reader so whichever touches the family first sets the
// same help text.
const helpStageSeconds = "Pipeline per-stage duration in seconds (ingest, cluster, build, fit, rank)."

// servedResult is one fully-rendered factfind outcome: the exact bytes
// (status line aside) every request attached to the computation writes.
// Followers of a coalesced run and the leader share one servedResult, which
// is what makes their responses byte-identical.
type servedResult struct {
	status     int
	body       []byte
	retryAfter string // Retry-After header value, "" for none
	fromCache  bool   // answered from the result cache (X-Cache: hit)
}

// MethodOnly restricts a handler to one HTTP method, answering anything
// else with 405 plus the RFC 9110-required Allow header and the standard
// JSON error body.
func MethodOnly(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed,
				fmt.Errorf("method %s not allowed; use %s", r.Method, method))
			return
		}
		h(w, r)
	}
}

// marshalBody renders v exactly as writeJSON would (json.Encoder appends a
// newline after the object), so cached replays and coalesced copies are
// byte-identical to directly-written responses.
func marshalBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Unreachable for the plain data types served here; keep the
		// contract (valid JSON + newline) even if it ever fires.
		return []byte(`{"error":"response encoding failed"}` + "\n")
	}
	return append(b, '\n')
}

// writeServed writes one rendered result, tagging the response with how the
// serving layer produced it (X-Cache: hit, miss, or coalesced).
func writeServed(w http.ResponseWriter, res *servedResult, cacheState string) {
	if res.retryAfter != "" {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	w.Header().Set("X-Cache", cacheState)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// canonicalAlgorithm resolves a request's algorithm field (default EM-Ext,
// matched case-insensitively) against the name list built once in New,
// without constructing any finder.
func (s *Server) canonicalAlgorithm(name string) (string, bool) {
	if name == "" {
		name = "EM-Ext"
	}
	for _, n := range s.algorithms {
		if strings.EqualFold(n, name) {
			return n, true
		}
	}
	return "", false
}

// resultKey derives the content-hash cache key from the normalized request
// plus the server options that shape the result: source space, sorted
// follow edges, the message stream (order preserved — clustering is
// order-sensitive), archive payload, lowercased format, canonical
// algorithm name, resolved topK, and the server's worker count.
// Two requests with the same key are entitled to byte-identical responses
// (trace id aside).
//
// The fields go straight into the hash, in that fixed order, each integer
// as 8 big-endian bytes and each string and list after its length, so two
// different normalized requests never share an encoding.
func (s *Server) resultKey(req Request, algorithm string, topK int) string {
	follows := slices.Clone(req.Follows)
	slices.SortFunc(follows, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	h := sha256.New()
	w := bufio.NewWriterSize(h, 4096)
	putInt := func(v int64) {
		_, _ = w.Write(binary.BigEndian.AppendUint64(w.AvailableBuffer(), uint64(v)))
	}
	putString := func(v string) {
		putInt(int64(len(v)))
		_, _ = w.WriteString(v)
	}
	putInt(int64(req.Sources))
	putInt(int64(len(follows)))
	for _, f := range follows {
		putInt(int64(f[0]))
		putInt(int64(f[1]))
	}
	putInt(int64(len(req.Messages)))
	for _, m := range req.Messages {
		putInt(int64(m.Source))
		putInt(m.Time)
		putString(m.Text)
	}
	putString(req.Archive)
	putString(strings.ToLower(req.Format))
	putString(algorithm)
	putInt(int64(topK))
	putInt(int64(s.opts.Workers))
	_ = w.Flush() // a hash's Write never fails
	return hex.EncodeToString(h.Sum(nil))
}

// cachedResponse looks the key up in the result cache.
func (s *Server) cachedResponse(key string) (Response, bool) {
	v, ok := s.cache.Get(key, s.clock())
	if !ok {
		return Response{}, false
	}
	return v.(Response), true
}

// replayCached turns a cached response into a served result: a fresh
// lightweight trace is recorded (so the replayed TraceID still resolves at
// /debug/runs/{id}) and stamped into a copy of the response. Everything
// but the TraceID is byte-identical to the cold computation. Replays are
// not spilled to TraceDir — the spill is a post-mortem record of
// computations, and a replay computes nothing. Counters are the caller's
// business: the front door counts a hit, the leader's double-check path
// already counted its request as a miss.
func (s *Server) replayCached(r *http.Request, resp Response, algorithm string) *servedResult {
	tb := s.newRunTrace(r, algorithm)
	tb.SetAttr("cache", "hit")
	t := tb.Finish(trace.StatusOK, "")
	s.flight.Record(t)
	resp.TraceID = t.ID
	return &servedResult{status: http.StatusOK, body: marshalBody(resp), fromCache: true}
}

// fitP50 reads the estimator's observed median cost from the fit-stage
// latency histogram: NaN before the first completed fit.
func (s *Server) fitP50() float64 {
	return s.reg.Histogram(MetricStageSeconds, helpStageSeconds,
		nil, obs.L("stage", "fit")).Quantile(0.5)
}

// retryAfterSeconds derives the Retry-After hint for shed responses from
// the observed median fit cost, defaulting to 1s with no data.
func (s *Server) retryAfterSeconds() string {
	p50 := s.fitP50()
	if math.IsNaN(p50) || math.IsInf(p50, 1) || p50 < 1 {
		return "1"
	}
	return strconv.Itoa(int(math.Ceil(p50)))
}

// checkBudget is the deadline-aware admission check: with a compute budget
// configured and at least one observed fit, a request whose remaining
// budget cannot cover the estimator's p50 cost is rejected up front with
// 503 instead of burning the pool on a computation that is overwhelmingly
// likely to be killed at the deadline. start is when the budget clock
// began (leader entry, before any queueing).
func (s *Server) checkBudget(start time.Time) *servedResult {
	if s.opts.ComputeTimeout <= 0 {
		return nil
	}
	p50 := s.fitP50()
	if math.IsNaN(p50) {
		return nil // no observed cost yet: admit and learn
	}
	remaining := s.opts.ComputeTimeout - s.clock().Sub(start)
	if remaining.Seconds() >= p50 {
		return nil
	}
	s.reg.Counter(MetricShed,
		"Computations rejected by admission control, by reason.",
		obs.L("reason", "budget")).Inc()
	e := apiError{
		Error: fmt.Sprintf(
			"insufficient compute budget: %s remaining cannot cover the observed p50 fit cost of %.3fs",
			remaining.Round(time.Millisecond), p50),
		Stopped: runctx.StopDeadline,
	}
	return &servedResult{
		status:     http.StatusServiceUnavailable,
		body:       marshalBody(e),
		retryAfter: s.retryAfterSeconds(),
	}
}

// computeResult is the singleflight leader: it owns the one pipeline run
// every coalesced request shares. The computation is detached from the
// leader's client (a coalesced run may be serving many clients, so one
// disconnect must not kill it); the compute budget is the backstop. Its
// budget clock starts here — time spent queued for a compute slot burns
// budget, which is exactly what the deadline-aware admission check audits.
func (s *Server) computeResult(r *http.Request, req Request, algorithm string, topK int, key string) *servedResult {
	ctx := context.WithoutCancel(r.Context())
	start := s.clock()
	if s.opts.ComputeTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.ComputeTimeout)
		defer cancel()
	}

	// The computation may have finished (and been cached) between this
	// request's cache miss and its election as leader.
	if resp, ok := s.cachedResponse(key); ok {
		return s.replayCached(r, resp, algorithm)
	}

	in, err := s.buildInput(req)
	if err != nil {
		return &servedResult{status: http.StatusBadRequest, body: marshalBody(apiError{Error: err.Error()})}
	}

	// Deadline-aware admission, checked before queueing (reject hopeless
	// work without occupying a queue position) and again after the slot
	// arrives (queue wait burned budget).
	if res := s.checkBudget(start); res != nil {
		return res
	}
	release, err := s.admission.Acquire(ctx)
	if err != nil {
		if errors.Is(err, serve.ErrShed) {
			s.reg.Counter(MetricShed,
				"Computations rejected by admission control, by reason.",
				obs.L("reason", "queue-full")).Inc()
			return &servedResult{
				status:     http.StatusTooManyRequests,
				body:       marshalBody(apiError{Error: "server over capacity: compute pool and admission queue are full"}),
				retryAfter: s.retryAfterSeconds(),
			}
		}
		// The compute budget expired while waiting in the queue.
		reason := runctx.StopCancelled
		if errors.Is(err, context.DeadlineExceeded) {
			reason = runctx.StopDeadline
		}
		s.reg.Counter(MetricComputeExhausted,
			"Factfind requests rejected with 503 because the compute budget ran out, by stop reason.",
			obs.L("reason", reason)).Inc()
		return &servedResult{
			status:     http.StatusServiceUnavailable,
			body:       marshalBody(apiError{Error: fmt.Sprintf("compute budget exhausted while queued (%s): %v", reason, err), Stopped: reason}),
			retryAfter: s.retryAfterSeconds(),
		}
	}
	defer release()
	if res := s.checkBudget(start); res != nil {
		return res
	}

	if s.testComputeHook != nil {
		s.testComputeHook()
	}

	finder := baselines.ExtendedByName(algorithm, core.Options{Workers: s.opts.Workers})
	// Estimator telemetry: one metrics exporter plus one trace recorder per
	// computation, composed with MultiHook. Every fact-finder fires its
	// hook from one goroutine at any Workers value (EM's sharded E/M steps
	// fire none), so counter values and traces are identical at any worker
	// count.
	tb := s.newRunTrace(r, algorithm)
	hctx := runctx.WithHook(ctx, runctx.MultiHook(obs.HookExporter(s.reg), tb.Hook()))
	out, err := apollo.RunContext(hctx, in, finder, apollo.Options{TopK: topK, Clock: s.clock})
	if out != nil {
		s.recordStages(out.Stages)
	}
	traceID := s.finishRunTrace(tb, out, err)
	if err != nil {
		if reason := runctx.Reason(err); reason != "" {
			// Compute budget exhausted — report the partial progress,
			// distinguished from estimator failure.
			s.reg.Counter(MetricComputeExhausted,
				"Factfind requests rejected with 503 because the compute budget ran out, by stop reason.",
				obs.L("reason", reason)).Inc()
			e := apiError{
				Error:   fmt.Sprintf("compute budget exhausted (%s): %v", reason, err),
				Stopped: reason,
				TraceID: traceID,
			}
			if out != nil && out.Result != nil {
				e.Iterations = out.Result.Iterations
			}
			return &servedResult{status: http.StatusServiceUnavailable, body: marshalBody(e), retryAfter: s.retryAfterSeconds()}
		}
		status := http.StatusBadRequest
		if !errors.Is(err, apollo.ErrNoMessages) && !errors.Is(err, apollo.ErrGraphSize) {
			status = http.StatusInternalServerError
		}
		return &servedResult{status: status, body: marshalBody(apiError{Error: err.Error(), TraceID: traceID})}
	}

	// Feed the estimation-quality monitor: calibration of this result's
	// posteriors against the Voting baseline. Only genuine computations
	// reach here (cache replays return earlier), so quality ticks count
	// distinct fits. The spill-less monitor never errors.
	_, _ = s.qual.ObserveRefit(ctx, qual.Refit{Result: out.Result, Dataset: out.Dataset, Edges: -1})

	resp := Response{
		Algorithm:  algorithm,
		Sources:    out.Dataset.N(),
		Assertions: out.Dataset.M(),
		Claims:     out.Dataset.NumClaims(),
		Dependent:  out.Dataset.NumDependentClaims(),
		Converged:  out.Result.Converged,
		Iterations: out.Result.Iterations,
		Stopped:    out.Result.Stopped,
		TraceID:    traceID,
	}
	for _, c := range out.Ranked {
		resp.Ranked = append(resp.Ranked, RankedAssertion{
			Assertion: c,
			Posterior: out.Result.Posterior[c],
			Text:      out.RepresentativeText[c],
			Claims:    len(out.Dataset.Claimants(c)),
			Dependent: out.Dataset.DependentClaimCount(c),
		})
	}
	// The cached copy carries no TraceID; replays stamp their own.
	cached := resp
	cached.TraceID = ""
	s.cache.Put(key, cached, s.clock())
	s.reg.Gauge(MetricCacheEntries, "Result cache entries currently held.").
		Set(float64(s.cache.Len()))
	return &servedResult{status: http.StatusOK, body: marshalBody(resp)}
}
