package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"depsense/internal/trace"
)

// getJSON GETs url and decodes the JSON body into out, returning the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

type runsIndex struct {
	Runs    []trace.Summary `json:"runs"`
	Added   uint64          `json:"added"`
	Evicted uint64          `json:"evicted"`
}

// TestDebugRunsEndpoints: a successful factfind run is announced via
// Response.TraceID and fully recoverable from the flight-recorder
// endpoints — stages, per-iteration events, and diagnostics included.
func TestDebugRunsEndpoints(t *testing.T) {
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
	if out.TraceID == "" {
		t.Fatalf("response carries no trace id: %s", body)
	}

	var idx runsIndex
	if code := getJSON(t, ts.URL+"/debug/runs", &idx); code != http.StatusOK {
		t.Fatalf("/debug/runs status %d", code)
	}
	if len(idx.Runs) != 1 || idx.Runs[0].ID != out.TraceID || idx.Runs[0].Status != trace.StatusOK {
		t.Fatalf("index: %+v", idx)
	}
	if idx.Added != 1 || idx.Evicted != 0 {
		t.Fatalf("index counters added=%d evicted=%d, want 1/0", idx.Added, idx.Evicted)
	}

	var tr trace.Trace
	if code := getJSON(t, ts.URL+"/debug/runs/"+out.TraceID, &tr); code != http.StatusOK {
		t.Fatalf("/debug/runs/{id} status %d", code)
	}
	if tr.Name != "factfind" || tr.Status != trace.StatusOK {
		t.Fatalf("trace header: %+v", tr)
	}
	if len(tr.Stages) != 5 {
		t.Fatalf("stages: %+v", tr.Stages)
	}
	if tr.Events() == 0 || len(tr.Runs) == 0 {
		t.Fatalf("trace recorded no estimator events: %+v", tr)
	}
	// The run for the algorithm the API reported matches the response's
	// iteration count and stop reason.
	var run *trace.Run
	for _, r := range tr.Runs {
		if r.Algorithm == out.Algorithm {
			run = r
		}
	}
	if run == nil {
		t.Fatalf("no trace run for %q: %+v", out.Algorithm, tr.Runs)
	}
	if run.Iterations() != out.Iterations || run.Stopped() != out.Stopped {
		t.Fatalf("trace run iterations=%d stopped=%q, response reported %d/%q",
			run.Iterations(), run.Stopped(), out.Iterations, out.Stopped)
	}
	if tr.Diagnostics == nil || len(tr.Diagnostics.Runs) == 0 {
		t.Fatalf("no diagnostics on the retained trace: %+v", tr)
	}

	// Unknown id and wrong method.
	if code := getJSON(t, ts.URL+"/debug/runs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id status %d, want 404", code)
	}
	r2, err := http.Post(ts.URL+"/debug/runs", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/runs status %d, want 405", r2.StatusCode)
	}
}

// TestDeadlineRunRecoverablePostMortem is the acceptance fixture for the
// observability loop: a request killed by the compute deadline must remain
// reconstructible after the fact — the 503 names a trace id, the flight
// recorder retains the failed trace in its error ring, and the TraceDir
// spill holds the same record on disk.
func TestDeadlineRunRecoverablePostMortem(t *testing.T) {
	dir := t.TempDir()
	ts := httptest.NewServer(New(Options{
		ComputeTimeout: time.Nanosecond,
		TraceDir:       dir,
	}))
	defer ts.Close()

	req := sampleRequest()
	req.Algorithm = "EM-Ext"
	resp, body := postJSON(t, ts.URL, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.TraceID == "" {
		t.Fatalf("503 carries no trace id: %s", body)
	}

	// In-memory post-mortem: the failed trace is retained and marked.
	var tr trace.Trace
	if code := getJSON(t, ts.URL+"/debug/runs/"+e.TraceID, &tr); code != http.StatusOK {
		t.Fatalf("/debug/runs/%s status %d", e.TraceID, code)
	}
	if tr.Status != trace.StatusDeadline {
		t.Fatalf("retained status = %q, want %q", tr.Status, trace.StatusDeadline)
	}
	if tr.Error == "" {
		t.Fatal("retained trace has no error message")
	}

	// On-disk post-mortem: the spill file decodes to the same record.
	spilled, err := trace.ReadFile(filepath.Join(dir, trace.SpillFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(spilled) != 1 || spilled[0].ID != e.TraceID || spilled[0].Status != trace.StatusDeadline {
		t.Fatalf("spill: %+v", spilled)
	}
}

// TestHTTPTraceDeterminismAcrossWorkers is the end-to-end mirror of the
// trace-layer determinism test: the same request served at Workers: 1 and
// Workers: 4 must retain byte-identical traces once timing fields are
// stripped.
func TestHTTPTraceDeterminismAcrossWorkers(t *testing.T) {
	fetch := func(workers int) []byte {
		ts := httptest.NewServer(New(Options{Workers: workers}))
		defer ts.Close()
		req := sampleRequest()
		req.Algorithm = "EM-Ext"
		resp, body := postJSON(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d status %d: %s", workers, resp.StatusCode, body)
		}
		var out Response
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		var tr trace.Trace
		if code := getJSON(t, ts.URL+"/debug/runs/"+out.TraceID, &tr); code != http.StatusOK {
			t.Fatalf("workers=%d trace fetch status %d", workers, code)
		}
		line, err := trace.Marshal(tr.StripTimings())
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	serial, parallel := fetch(1), fetch(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("Workers leaked into the retained trace:\nworkers=1: %s\nworkers=4: %s", serial, parallel)
	}
}

// TestFlightRecorderBounded: TraceBuffer caps retention while the lifetime
// counters keep the full history — memory stays bounded no matter how much
// traffic the server serves.
func TestFlightRecorderBounded(t *testing.T) {
	ts := httptest.NewServer(New(Options{TraceBuffer: 2}))
	defer ts.Close()
	const requests = 5
	for i := 0; i < requests; i++ {
		resp, body := postJSON(t, ts.URL, sampleRequest())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status %d: %s", i, resp.StatusCode, body)
		}
	}
	var idx runsIndex
	if code := getJSON(t, ts.URL+"/debug/runs", &idx); code != http.StatusOK {
		t.Fatalf("/debug/runs status %d", code)
	}
	if len(idx.Runs) != 2 {
		t.Fatalf("retained %d runs, want 2: %+v", len(idx.Runs), idx.Runs)
	}
	if idx.Added != requests || idx.Evicted != requests-2 {
		t.Fatalf("counters added=%d evicted=%d, want %d/%d", idx.Added, idx.Evicted, requests, requests-2)
	}
	// Newest first: the last two request ids survive.
	if idx.Runs[0].StartUnixNS < idx.Runs[1].StartUnixNS {
		t.Fatalf("index not newest-first: %+v", idx.Runs)
	}
}

// TestDebugRunsConcurrent hammers the flight recorder through the HTTP
// surface — factfind writers racing /debug/runs readers — and is the
// race-detector fixture for the serving path.
func TestDebugRunsConcurrent(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, body := postJSON(t, ts.URL, sampleRequest())
				if resp.StatusCode != http.StatusOK {
					t.Errorf("factfind status %d: %s", resp.StatusCode, body)
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var idx runsIndex
				if code := getJSON(t, ts.URL+"/debug/runs", &idx); code != http.StatusOK {
					t.Errorf("/debug/runs status %d", code)
					return
				}
				for _, s := range idx.Runs {
					var tr trace.Trace
					if code := getJSON(t, ts.URL+"/debug/runs/"+s.ID, &tr); code != http.StatusOK && code != http.StatusNotFound {
						t.Errorf("/debug/runs/%s status %d", s.ID, code)
					}
				}
			}
		}()
	}
	wg.Wait()

	var idx runsIndex
	if code := getJSON(t, ts.URL+"/debug/runs", &idx); code != http.StatusOK {
		t.Fatalf("/debug/runs status %d", code)
	}
	// Every request records one trace (computed or cache hit) except
	// coalesced followers, which share their leader's.
	coalesced := srv.Metrics().Counter(MetricCoalesced, "").Value()
	if want := 12 - uint64(coalesced); idx.Added != want {
		t.Fatalf("added = %d, want %d (12 requests, %v coalesced)", idx.Added, want, coalesced)
	}
	for _, s := range idx.Runs {
		if _, err := strconv.Atoi(s.ID[len("req-"):]); err != nil {
			t.Fatalf("unexpected trace id %q", s.ID)
		}
	}
}
