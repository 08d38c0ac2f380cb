package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"depsense/internal/obs"
)

// waitFor polls cond every millisecond until it holds, failing the test
// after a generous bound. Poll-based (no wall-clock deadline) so the test
// needs no bare time.Now.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTrailingGarbageRejected: a conforming /v1/factfind payload is exactly
// one JSON object — data after it (a second object, stray tokens) is a 400,
// not silently ignored. Trailing whitespace stays legal.
func TestTrailingGarbageRejected(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	raw, err := json.Marshal(sampleRequest())
	if err != nil {
		t.Fatal(err)
	}

	for _, garbage := range []string{`{"junk":1}`, `[]`, `42`, `x`} {
		resp, err := http.Post(ts.URL+"/v1/factfind", "application/json",
			strings.NewReader(string(raw)+garbage))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("trailing %q: status %d, want 400 (%s)", garbage, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "after the JSON payload") {
			t.Fatalf("trailing %q: error does not name the problem: %s", garbage, body)
		}
	}

	// Trailing whitespace is not garbage.
	resp, err := http.Post(ts.URL+"/v1/factfind", "application/json",
		strings.NewReader(string(raw)+"\n  \t\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d, want 200", resp.StatusCode)
	}
}

// TestMethodNotAllowed: every endpoint answers a wrong-method request with
// 405, the RFC 9110-required Allow header, and the standard JSON error body.
func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	cases := []struct {
		path    string
		allowed string
		wrong   string
	}{
		{"/healthz", http.MethodGet, http.MethodPost},
		{"/healthz", http.MethodGet, http.MethodDelete},
		{"/v1/algorithms", http.MethodGet, http.MethodPost},
		{"/v1/factfind", http.MethodPost, http.MethodGet},
		{"/v1/factfind", http.MethodPost, http.MethodPut},
		{"/v1/factfind", http.MethodPost, http.MethodDelete},
		{"/metrics", http.MethodGet, http.MethodPost},
		{"/debug/runs", http.MethodGet, http.MethodPost},
		{"/debug/runs/some-id", http.MethodGet, http.MethodPut},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.wrong, ts.URL+c.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.wrong, c.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Allow"); got != c.allowed {
			t.Errorf("%s %s: Allow = %q, want %q", c.wrong, c.path, got, c.allowed)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, c.allowed) {
			t.Errorf("%s %s: body %q does not name the allowed method", c.wrong, c.path, body)
		}
	}
}

// traceIDField erases the traceID value so response bodies can be compared
// byte-for-byte modulo the one per-request field.
var traceIDField = regexp.MustCompile(`"traceID":"[^"]*"`)

// TestCacheHitByteIdentical: the second identical request is answered from
// the cache with the exact bytes of the first response, TraceID aside — at
// serial and parallel worker counts.
func TestCacheHitByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv := New(Options{Workers: workers})
			ts := httptest.NewServer(srv)
			defer ts.Close()
			req := sampleRequest()
			req.Algorithm = "EM-Ext"
			raw, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			post := func() (*http.Response, []byte) {
				resp, err := http.Post(ts.URL+"/v1/factfind", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp, body
			}

			r1, b1 := post()
			if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Cache") != "miss" {
				t.Fatalf("first: status %d X-Cache %q: %s", r1.StatusCode, r1.Header.Get("X-Cache"), b1)
			}
			r2, b2 := post()
			if r2.StatusCode != http.StatusOK || r2.Header.Get("X-Cache") != "hit" {
				t.Fatalf("second: status %d X-Cache %q: %s", r2.StatusCode, r2.Header.Get("X-Cache"), b2)
			}

			var o1, o2 Response
			if err := json.Unmarshal(b1, &o1); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b2, &o2); err != nil {
				t.Fatal(err)
			}
			if o1.TraceID == "" || o2.TraceID == "" || o1.TraceID == o2.TraceID {
				t.Fatalf("trace ids should be fresh per request: %q vs %q", o1.TraceID, o2.TraceID)
			}
			n1 := traceIDField.ReplaceAll(b1, []byte(`"traceID":""`))
			n2 := traceIDField.ReplaceAll(b2, []byte(`"traceID":""`))
			if !bytes.Equal(n1, n2) {
				t.Fatalf("replay not byte-identical modulo TraceID:\n%s\n%s", n1, n2)
			}

			reg := srv.Metrics()
			if hits := reg.Counter(MetricCacheHits, "").Value(); hits != 1 {
				t.Fatalf("cache hits = %v, want 1", hits)
			}
			if misses := reg.Counter(MetricCacheMisses, "").Value(); misses != 1 {
				t.Fatalf("cache misses = %v, want 1", misses)
			}
			if entries := reg.Gauge(MetricCacheEntries, "").Value(); entries != 1 {
				t.Fatalf("cache entries = %v, want 1", entries)
			}
		})
	}
}

// TestCoalescing: K concurrent identical requests execute the pipeline
// exactly once; every caller receives the very same bytes (TraceID
// included — they shared one run).
func TestCoalescing(t *testing.T) {
	srv := New(Options{})
	var runs atomic.Int32
	gate := make(chan struct{})
	srv.testComputeHook = func() {
		runs.Add(1)
		<-gate
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := sampleRequest()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	key := srv.resultKey(req, "Voting", 5)

	const K = 6
	bodies := make([][]byte, K)
	statuses := make([]int, K)
	states := make([]string, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/factfind", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			states[i] = resp.Header.Get("X-Cache")
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}

	// Hold the leader until every caller is attached to the flight, then
	// release — all K were provably concurrent with the single run.
	waitFor(t, "all callers coalesced", func() bool { return srv.coalesce.Pending(key) == K })
	close(gate)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("pipeline ran %d times for %d concurrent identical requests", got, K)
	}
	coalesced, miss := 0, 0
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0:\n%s\n%s", i, bodies[i], bodies[0])
		}
		switch states[i] {
		case "coalesced":
			coalesced++
		case "miss":
			miss++
		default:
			t.Fatalf("request %d: X-Cache %q", i, states[i])
		}
	}
	if miss != 1 || coalesced != K-1 {
		t.Fatalf("X-Cache split: %d miss, %d coalesced; want 1 and %d", miss, coalesced, K-1)
	}

	reg := srv.Metrics()
	if got := reg.Counter(MetricCoalesced, "").Value(); got != K-1 {
		t.Fatalf("coalesced counter = %v, want %d", got, K-1)
	}
	if added, _ := srv.Flight().Stats(); added != 1 {
		t.Fatalf("flight recorder saw %d runs, want 1", added)
	}

	// One more identical request is a cache hit. The counters reconcile:
	// every validated request is either a hit or a miss (coalesced
	// followers count as misses), and the compute gauges have drained.
	resp, err := http.Post(ts.URL+"/v1/factfind", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if state := resp.Header.Get("X-Cache"); resp.StatusCode != http.StatusOK || state != "hit" {
		t.Fatalf("follow-up request: status %d, X-Cache %q; want 200 hit", resp.StatusCode, state)
	}
	hits, misses := reg.Counter(MetricCacheHits, "").Value(), reg.Counter(MetricCacheMisses, "").Value()
	if hits != 1 || hits+misses != K+1 {
		t.Fatalf("cache hits %v + misses %v, want 1 + %d: one per request", hits, misses, K)
	}
	if inFlight, queued := reg.Gauge(MetricComputeInFlight, "").Value(), reg.Gauge(MetricComputeQueued, "").Value(); inFlight != 0 || queued != 0 {
		t.Fatalf("compute gauges did not drain: in flight %v, queued %v", inFlight, queued)
	}
}

// TestShedOverCapacity: with the pool saturated and no queue, additional
// computations get 429 + Retry-After immediately, and the channel-token
// accounting drains cleanly once the blocker finishes.
func TestShedOverCapacity(t *testing.T) {
	srv := New(Options{MaxInFlight: 1, QueueDepth: 0})
	gate := make(chan struct{})
	srv.testComputeHook = func() { <-gate }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(topK int) (*http.Response, []byte, error) {
		req := sampleRequest()
		req.TopK = topK // distinct content hash per topK: no coalescing
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/factfind", "application/json", bytes.NewReader(raw))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp, body, err
	}

	blockerDone := make(chan int, 1)
	go func() {
		resp, _, err := post(5)
		if err != nil {
			blockerDone <- -1
			return
		}
		blockerDone <- resp.StatusCode
	}()
	waitFor(t, "blocker to hold the slot", func() bool { return srv.admission.InFlight() == 1 })

	const shedWant = 5
	for i := 0; i < shedWant; i++ {
		resp, body, err := post(10 + i)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-capacity request %d: status %d, want 429: %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("429 without Retry-After")
		}
	}

	close(gate)
	if status := <-blockerDone; status != http.StatusOK {
		t.Fatalf("blocker finished with status %d", status)
	}
	if f, q := srv.admission.InFlight(), srv.admission.Queued(); f != 0 || q != 0 {
		t.Fatalf("accounting did not drain: inFlight=%d queued=%d", f, q)
	}
	reg := srv.Metrics()
	if got := reg.Counter(MetricShed, "", obs.L("reason", "queue-full")).Value(); got != shedWant {
		t.Fatalf("shed{queue-full} = %v, want %d", got, shedWant)
	}
	if got := reg.Gauge(MetricComputeInFlight, "").Value(); got != 0 {
		t.Fatalf("in-flight gauge = %v, want 0", got)
	}
}

// TestQueueThenShed: one computation runs, one waits in the depth-1 queue,
// the third sheds; releasing the runner lets the queued one through.
func TestQueueThenShed(t *testing.T) {
	srv := New(Options{MaxInFlight: 1, QueueDepth: 1})
	gate := make(chan struct{})
	srv.testComputeHook = func() { <-gate }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(topK int, done chan int) {
		req := sampleRequest()
		req.TopK = topK
		raw, err := json.Marshal(req)
		if err != nil {
			done <- -1
			return
		}
		resp, err := http.Post(ts.URL+"/v1/factfind", "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}

	aDone, bDone := make(chan int, 1), make(chan int, 1)
	go post(5, aDone)
	waitFor(t, "A to hold the slot", func() bool { return srv.admission.InFlight() == 1 })
	go post(6, bDone)
	waitFor(t, "B to queue", func() bool { return srv.admission.Queued() == 1 })

	cDone := make(chan int, 1)
	go post(7, cDone)
	if status := <-cDone; status != http.StatusTooManyRequests {
		t.Fatalf("C with the queue full: status %d, want 429", status)
	}

	close(gate)
	if status := <-aDone; status != http.StatusOK {
		t.Fatalf("A finished with status %d", status)
	}
	if status := <-bDone; status != http.StatusOK {
		t.Fatalf("B finished with status %d", status)
	}
	if f, q := srv.admission.InFlight(), srv.admission.Queued(); f != 0 || q != 0 {
		t.Fatalf("accounting did not drain: inFlight=%d queued=%d", f, q)
	}
}

// TestDeadlineAdmission: once the fit-stage histogram shows a p50 cost the
// remaining compute budget cannot cover, requests are rejected up front
// with 503 — the pipeline never starts.
func TestDeadlineAdmission(t *testing.T) {
	srv := New(Options{ComputeTimeout: 50 * time.Millisecond})
	var ran atomic.Bool
	srv.testComputeHook = func() { ran.Store(true) }
	// Teach the histogram an observed fit cost far above the budget.
	srv.Metrics().Histogram(MetricStageSeconds, helpStageSeconds,
		nil, obs.L("stage", "fit")).Observe(2.0)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL, sampleRequest())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("budget 503 without Retry-After")
	}
	var e struct {
		Error   string `json:"error"`
		Stopped string `json:"stopped"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "insufficient compute budget") || e.Stopped != "deadline" {
		t.Fatalf("unexpected budget rejection body: %s", body)
	}
	if ran.Load() {
		t.Fatal("pipeline ran despite the budget rejection")
	}
	if got := srv.Metrics().Counter(MetricShed, "", obs.L("reason", "budget")).Value(); got != 1 {
		t.Fatalf("shed{budget} = %v, want 1", got)
	}
}

// TestCacheDisabled: a negative CacheSize turns replay off — identical
// sequential requests each compute.
func TestCacheDisabled(t *testing.T) {
	srv := New(Options{CacheSize: -1})
	var runs atomic.Int32
	srv.testComputeHook = func() { runs.Add(1) }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL, sampleRequest())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("request %d: X-Cache %q, want miss", i, got)
		}
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("pipeline ran %d times with the cache disabled, want 2", got)
	}
}

// TestResultKeyCanonical: the cache key ignores what normalization
// discards (follow order, algorithm and format case) and changes with
// anything that can change the response (message order, a text, topK),
// including a byte moved from one string field to the next.
func TestResultKeyCanonical(t *testing.T) {
	srv := New(Options{})
	key := func(req Request) string {
		t.Helper()
		alg, ok := srv.canonicalAlgorithm(req.Algorithm)
		if !ok {
			t.Fatalf("unknown algorithm %q", req.Algorithm)
		}
		return srv.resultKey(req, alg, req.TopK)
	}
	base := func() Request {
		req := sampleRequest()
		req.Follows = [][2]int{{1, 0}, {2, 0}, {3, 1}, {3, 2}}
		return req
	}
	want := key(base())

	for name, edit := range map[string]func(*Request){
		"follows reordered": func(r *Request) { slices.Reverse(r.Follows) },
		"algorithm case":    func(r *Request) { r.Algorithm = "vOTING" },
	} {
		req := base()
		edit(&req)
		if got := key(req); got != want {
			t.Errorf("%s: key changed", name)
		}
	}
	archive := func(format string) Request {
		return Request{Archive: `{"id":1}`, Format: format, Algorithm: "Voting", TopK: 5}
	}
	if key(archive("twitter-json")) != key(archive("Twitter-JSON")) {
		t.Errorf("format case: key changed")
	}
	// The archive and the format are adjacent strings: only their lengths
	// tell a byte moved across the boundary.
	moved := archive("witter-json")
	moved.Archive += "t"
	if key(moved) == key(archive("twitter-json")) {
		t.Errorf("archive/format boundary: key unchanged")
	}

	for name, edit := range map[string]func(*Request){
		"messages swapped": func(r *Request) { r.Messages[0], r.Messages[1] = r.Messages[1], r.Messages[0] },
		"text changed":     func(r *Request) { r.Messages[2].Text += "!" },
		"topK changed":     func(r *Request) { r.TopK = 6 },
	} {
		req := base()
		edit(&req)
		if got := key(req); got == want {
			t.Errorf("%s: key unchanged", name)
		}
	}
}
