package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"depsense/internal/httpapi"
	"depsense/internal/qual"
	"depsense/internal/stream"
	"depsense/internal/trace"
)

// opsServer is one depsense server under the shared operator-route
// contract, with a way to drive it to its first finished run and verdict.
type opsServer struct {
	name string
	h    http.Handler
	run  func(t *testing.T)
}

// servePipeline builds an ingest server over the small Ukraine stream, with
// quality monitoring when quality is set.
func servePipeline(t *testing.T, quality bool) (*Pipeline, *Server) {
	t.Helper()
	_, tweets := testTweets(t, 60, 7)
	opts := Options{
		Stream:          stream.Options{},
		BatchSize:       32,
		DisableShedding: true,
	}
	if quality {
		opts.Quality = &qual.Options{BoundEvery: -1}
	}
	p, err := New(context.Background(), &SliceSource{Tweets: tweets}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, NewServer(p)
}

// opsServers returns the factfind server and a quality-monitored ingest
// server, both before their first computation.
func opsServers(t *testing.T) []opsServer {
	api := httpapi.New(httpapi.Options{})
	p, srv := servePipeline(t, true)
	return []opsServer{
		{"httpapi", api, func(t *testing.T) {
			body, err := json.Marshal(httpapi.Request{
				Sources: 2,
				Follows: [][2]int{{1, 0}},
				Messages: []httpapi.Message{
					{Source: 0, Time: 1, Text: "witness2 reported fire near plaza3 n42 #demo"},
					{Source: 1, Time: 2, Text: "rt @user0: witness2 reported fire near plaza3 n42 #demo"},
				},
				Algorithm: "EM-Ext",
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/factfind", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("factfind = %d: %s", rec.Code, rec.Body)
			}
		}},
		{"ingest", srv, func(t *testing.T) {
			if err := p.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}},
	}
}

// opsCase is one request against an ops route and what it must return.
type opsCase struct {
	name   string
	method string
	path   string
	// afterRun selects the state after the server's first computation.
	afterRun bool
	code     int
	check    func(t *testing.T, rec *httptest.ResponseRecorder)
}

// errorBody decodes the standard {"error": ...} body.
func errorBody(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body %q: %v", rec.Body, err)
	}
	return e.Error
}

// TestOpsRouteContract runs one table of operator-route cases against both
// depsense servers: the routes, status codes, bodies and headers an
// operator sees must not depend on which server answers.
func TestOpsRouteContract(t *testing.T) {
	opsRoutes := []string{"/healthz", "/metrics", "/debug/runs", "/debug/runs/some-id", "/debug/quality"}
	cases := []opsCase{
		{name: "runs index shape before any run", method: http.MethodGet, path: "/debug/runs", code: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var idx map[string]json.RawMessage
				if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
					t.Fatal(err)
				}
				keys := make([]string, 0, len(idx))
				for k := range idx {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if strings.Join(keys, ",") != "added,evicted,runs" || string(idx["runs"]) != "[]" {
					t.Fatalf("index = %s, want exactly runs/added/evicted with no runs", rec.Body)
				}
			}},
		{name: "quality before the first verdict", method: http.MethodGet, path: "/debug/quality", code: http.StatusServiceUnavailable,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				if msg := errorBody(t, rec); msg != "no quality verdict yet" {
					t.Fatalf("error = %q", msg)
				}
			}},
		{name: "quality after the first verdict", method: http.MethodGet, path: "/debug/quality", afterRun: true, code: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var rep qual.Report
				if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || rep.Latest == nil || rep.Ticks == 0 {
					t.Fatalf("report %s: %v", rec.Body, err)
				}
			}},
		{name: "runs index after a run", method: http.MethodGet, path: "/debug/runs", afterRun: true, code: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				var idx struct {
					Runs  []trace.Summary `json:"runs"`
					Added uint64          `json:"added"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil || len(idx.Runs) == 0 || idx.Added == 0 {
					t.Fatalf("index %s: %v", rec.Body, err)
				}
			}},
		{name: "unknown run id", method: http.MethodGet, path: "/debug/runs/nope", afterRun: true, code: http.StatusNotFound,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				if msg := errorBody(t, rec); msg != `no retained trace with id "nope"` {
					t.Fatalf("error = %q", msg)
				}
			}},
		{name: "metrics exposition", method: http.MethodGet, path: "/metrics", afterRun: true, code: http.StatusOK,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
					t.Fatalf("content type %q", ct)
				}
			}},
	}
	for _, path := range opsRoutes {
		cases = append(cases, opsCase{name: "POST " + path, method: http.MethodPost, path: path, code: http.StatusMethodNotAllowed,
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				if got := rec.Header().Get("Allow"); got != http.MethodGet {
					t.Fatalf("Allow = %q, want GET", got)
				}
				if msg := errorBody(t, rec); !strings.Contains(msg, http.MethodGet) {
					t.Fatalf("error %q does not name GET", msg)
				}
			}})
	}

	var healthz []string
	for _, srv := range opsServers(t) {
		serve := func(method, path string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			return rec
		}
		for _, afterRun := range []bool{false, true} {
			if afterRun {
				srv.run(t)
			}
			for _, c := range cases {
				if c.afterRun != afterRun {
					continue
				}
				t.Run(srv.name+"/"+c.name, func(t *testing.T) {
					rec := serve(c.method, c.path)
					if rec.Code != c.code {
						t.Fatalf("%s %s = %d, want %d: %s", c.method, c.path, rec.Code, c.code, rec.Body)
					}
					c.check(t, rec)
				})
			}
		}
		// A retained run is served in full under its id.
		var idx struct {
			Runs []trace.Summary `json:"runs"`
		}
		if err := json.Unmarshal(serve(http.MethodGet, "/debug/runs").Body.Bytes(), &idx); err != nil || len(idx.Runs) == 0 {
			t.Fatalf("%s: runs index: %v", srv.name, err)
		}
		rec := serve(http.MethodGet, "/debug/runs/"+idx.Runs[0].ID)
		var tr trace.Trace
		if err := json.Unmarshal(rec.Body.Bytes(), &tr); rec.Code != http.StatusOK || err != nil || tr.ID != idx.Runs[0].ID {
			t.Fatalf("%s: /debug/runs/%s = %d: %s", srv.name, idx.Runs[0].ID, rec.Code, rec.Body)
		}
		h := serve(http.MethodGet, "/healthz")
		if h.Code != http.StatusOK {
			t.Fatalf("%s: /healthz = %d", srv.name, h.Code)
		}
		healthz = append(healthz, h.Header().Get("Content-Type")+" "+h.Body.String())
	}
	if healthz[0] != healthz[1] {
		t.Fatalf("/healthz differs between servers: %q vs %q", healthz[0], healthz[1])
	}
}

// TestOpsRoutesDisabled pins the two switched-off states: no quality
// monitor answers /debug/quality with 404, and a server without a metrics
// handler does not mount /metrics.
func TestOpsRoutesDisabled(t *testing.T) {
	_, plain := servePipeline(t, false)
	for _, c := range []struct {
		name string
		h    http.Handler
		path string
	}{
		{"ingest without quality", plain, "/debug/quality"},
		{"httpapi with metrics disabled", httpapi.New(httpapi.Options{DisableMetrics: true}), "/metrics"},
	} {
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s: GET %s = %d, want 404", c.name, c.path, rec.Code)
		}
	}
}

// TestPipelineFailedTraceRetention: the ingest flight recorder follows the
// one failed-retention rule, a quarter of TraceBuffer but never below
// trace.DefaultFailed, so a small buffer still keeps 16 failed or alarm
// traces.
func TestPipelineFailedTraceRetention(t *testing.T) {
	p, err := New(context.Background(), &SliceSource{}, Options{TraceBuffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*trace.DefaultFailed; i++ {
		p.Flight().Record(trace.NewBuilder("alarm-"+strconv.Itoa(i), "qual", nil).Finish(qual.TraceStatusAlarm, "drift"))
	}
	if got := p.Flight().Len(); got != trace.DefaultFailed {
		t.Fatalf("retained %d failed traces, want %d", got, trace.DefaultFailed)
	}
}
