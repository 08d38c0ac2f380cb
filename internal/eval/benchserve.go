package eval

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"depsense/internal/httpapi"
	"depsense/internal/obs"
)

// benchServe drives the HTTP serving layer the way a client fleet would:
// an open-loop arrival process (requests scheduled by the clock, not by
// completions) over a small set of repeating payloads against a cached,
// coalescing server, followed by a saturation burst against a one-slot
// server to verify load-shedding behaves. The open-loop server has no
// admission limit, so every open-loop request must return 200. Requests go
// straight through Server.ServeHTTP — no sockets — so the numbers isolate
// the serving layer itself.
func benchServe(c Config, sz benchSizes, rep *BenchReport) error {
	// ---- Open-loop phase: cache + coalescing, unbounded compute. ----
	reg := obs.NewRegistry()
	srv := httpapi.New(httpapi.Options{Seed: c.Seed, Workers: 1, Metrics: reg})
	payloads := make([][]byte, sz.serveUnique)
	for v := range payloads {
		b, err := json.Marshal(openLoopPayload(v))
		if err != nil {
			return fmt.Errorf("eval: bench serve payload: %w", err)
		}
		payloads[v] = b
	}

	lat := make([]float64, sz.serveRequests)
	status := make([]int, sz.serveRequests)
	var wg sync.WaitGroup
	start := time.Now() //lint:allow seedsource wall-clock timing measurement: this benchmark's output IS request latency
	for i := 0; i < sz.serveRequests; i++ {
		// Arrivals are due at start + i/rate regardless of completions —
		// the generator never waits for the server, which is what makes
		// queueing visible.
		due := time.Duration(float64(i) / sz.serveRate * float64(time.Second))
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			issued := time.Since(start)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/factfind",
				bytes.NewReader(payloads[i%sz.serveUnique])))
			lat[i] = (time.Since(start) - issued).Seconds()
			status[i] = rec.Code
		}(i)
	}
	wg.Wait()

	sort.Float64s(lat)
	non200 := 0
	for _, s := range status {
		if s != http.StatusOK {
			non200++
		}
	}
	requests := float64(sz.serveRequests)
	hits := reg.Counter(httpapi.MetricCacheHits, "").Value()
	misses := reg.Counter(httpapi.MetricCacheMisses, "").Value()
	coalesced := reg.Counter(httpapi.MetricCoalesced, "").Value()
	reconciled := hits+misses == requests &&
		reg.Gauge(httpapi.MetricComputeInFlight, "").Value() == 0 &&
		reg.Gauge(httpapi.MetricComputeQueued, "").Value() == 0

	// ---- Saturation burst: one compute slot, no queue, no cache. ----
	burstReg := obs.NewRegistry()
	burstSrv := httpapi.New(httpapi.Options{
		Seed:        c.Seed,
		Workers:     1,
		Metrics:     burstReg,
		CacheSize:   -1, // replay off: every request must compete for the slot
		MaxInFlight: 1,
		QueueDepth:  0,
	})
	blockerBody, err := json.Marshal(blockerPayload())
	if err != nil {
		return fmt.Errorf("eval: bench serve blocker payload: %w", err)
	}
	blockerDone := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		burstSrv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/factfind",
			bytes.NewReader(blockerBody)))
		blockerDone <- rec.Code
	}()
	// Wait until the blocker provably holds the compute slot; only then are
	// the probes guaranteed to find the pool saturated.
	held := false
	for i := 0; i < 15000; i++ {
		if burstReg.Gauge(httpapi.MetricComputeInFlight, "").Value() == 1 {
			held = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	burstOK, burstShed, retryAfterMissing := 0, 0, 0
	if held {
		for i := 0; i < sz.serveBurst-1; i++ {
			b, err := json.Marshal(openLoopPayload(1000 + i))
			if err != nil {
				return fmt.Errorf("eval: bench serve probe payload: %w", err)
			}
			rec := httptest.NewRecorder()
			burstSrv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/factfind",
				bytes.NewReader(b)))
			switch rec.Code {
			case http.StatusOK:
				burstOK++
			case http.StatusTooManyRequests:
				burstShed++
				if rec.Header().Get("Retry-After") == "" {
					retryAfterMissing++
				}
			}
		}
	}
	if code := <-blockerDone; code == http.StatusOK {
		burstOK++
	}
	shedCounter := burstReg.Counter(httpapi.MetricShed, "", obs.L("reason", "queue-full")).Value()
	burstHits := burstReg.Counter(httpapi.MetricCacheHits, "").Value()
	burstMisses := burstReg.Counter(httpapi.MetricCacheMisses, "").Value()
	reconciled = reconciled &&
		burstHits+burstMisses == float64(sz.serveBurst) &&
		shedCounter == float64(burstShed) &&
		burstReg.Gauge(httpapi.MetricComputeInFlight, "").Value() == 0 &&
		burstReg.Gauge(httpapi.MetricComputeQueued, "").Value() == 0

	rep.add("serve", "open_loop_requests", requests, "count")
	rep.add("serve", "open_loop_non200", float64(non200), "count")
	rep.add("serve", "p50", quantileAt(lat, 0.5)*1000, "ms")
	rep.add("serve", "p99", quantileAt(lat, 0.99)*1000, "ms")
	rep.add("serve", "cache_hits", hits, "count")
	rep.add("serve", "cache_misses", misses, "count")
	rep.add("serve", "coalesced", coalesced, "count")
	rep.add("serve", "hit_rate", hits/requests, "ratio")
	rep.add("serve", "reuse_rate", (hits+coalesced)/requests, "ratio")
	rep.add("serve", "blocker_held", boolValue(held), "bool")
	rep.add("serve", "burst_requests", float64(sz.serveBurst), "count")
	rep.add("serve", "burst_ok", float64(burstOK), "count")
	rep.add("serve", "burst_shed", float64(burstShed), "count")
	rep.add("serve", "retry_after_missing", float64(retryAfterMissing), "count")
	rep.add("serve", "counters_reconcile", boolValue(reconciled), "bool")
	return nil
}

// quantileAt reads the q-quantile from already-sorted samples (nearest-rank).
func quantileAt(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// openLoopPayload builds the v-th distinct open-loop request: the message
// text carries the variant token, so each variant hashes to its own cache
// key while the workload stays constant.
func openLoopPayload(v int) httpapi.Request {
	return httpapi.Request{
		Sources: 4,
		Follows: [][2]int{{1, 0}},
		Messages: []httpapi.Message{
			{Source: 0, Time: 1, Text: fmt.Sprintf("witness reported fire near plaza n%d #bench", v)},
			{Source: 1, Time: 2, Text: fmt.Sprintf("rt @user0: witness reported fire near plaza n%d #bench", v)},
			{Source: 2, Time: 3, Text: fmt.Sprintf("official denied outage near campus n%d #bench", v)},
			{Source: 3, Time: 4, Text: fmt.Sprintf("official denied outage near campus n%d #bench update", v)},
		},
		Algorithm: "EM-Ext",
		TopK:      5,
	}
}

// blockerPayload builds the saturation blocker: an EM-Ext workload heavy
// enough to hold the compute slot for a macroscopic stretch while the shed
// probes arrive — including on a single-core host, where async preemption
// is the only concurrency.
func blockerPayload() httpapi.Request {
	// 12000 distinct assertions (the cluster stage must not merge them, so
	// every text is unique) × 4 claims each across 2000 sources.
	const (
		sources    = 2000
		assertions = 12000
		claims     = 4
	)
	msgs := make([]httpapi.Message, 0, assertions*claims)
	for i := 0; i < assertions*claims; i++ {
		a := i % assertions
		msgs = append(msgs, httpapi.Message{
			Source: (a + i/assertions*7) % sources,
			Time:   int64(i),
			// Tokens are nearly all assertion-specific: at Jaccard 0.5 the
			// leader clusterer keeps every assertion in its own cluster.
			Text: fmt.Sprintf("incident%d sector%d status%d n%d #load", a, a, a, a),
		})
	}
	return httpapi.Request{
		Sources:   sources,
		Messages:  msgs,
		Algorithm: "EM-Ext",
		TopK:      10,
	}
}
