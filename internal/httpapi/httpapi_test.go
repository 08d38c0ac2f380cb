package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer() *httptest.Server {
	return httptest.NewServer(New(Options{}))
}

func postJSON(t *testing.T, url string, req Request) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/factfind", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func sampleRequest() Request {
	return Request{
		Sources: 4,
		Follows: [][2]int{{1, 0}},
		Messages: []Message{
			{Source: 0, Time: 1, Text: "witness2 reported fire near plaza3 n42 #demo"},
			{Source: 1, Time: 2, Text: "rt @user0: witness2 reported fire near plaza3 n42 #demo"},
			{Source: 2, Time: 3, Text: "official7 denied outage near campus9 n17 #demo"},
			{Source: 3, Time: 4, Text: "official7 denied outage near campus9 n17 #demo update"},
		},
		Algorithm: "Voting",
		TopK:      5,
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestAlgorithms(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out["algorithms"]) != 9 || out["algorithms"][0] != "EM-Ext" {
		t.Fatalf("algorithms = %v", out["algorithms"])
	}
}

func TestFactFind(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	resp, body := postJSON(t, ts.URL, sampleRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "Voting" || out.Assertions != 2 || out.Dependent != 1 {
		t.Fatalf("response: %+v", out)
	}
	if len(out.Ranked) != 2 {
		t.Fatalf("ranked: %+v", out.Ranked)
	}
	if out.Ranked[0].Text == "" || out.Ranked[0].Claims == 0 {
		t.Fatalf("ranked row incomplete: %+v", out.Ranked[0])
	}
}

func TestFactFindTwitterJSON(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	archive := strings.Join([]string{
		`{"id_str":"1","text":"explosion near bridge7 n4 #x","created_at":"Sat Mar 14 10:00:00 +0000 2015","user":{"id_str":"42","screen_name":"alice"}}`,
		`{"id_str":"2","text":"RT @alice: explosion near bridge7 n4 #x","created_at":"Sat Mar 14 10:05:00 +0000 2015","user":{"id_str":"77"},"retweeted_status":{"id_str":"1","user":{"id_str":"42"}}}`,
	}, "\n")
	resp, body := postJSON(t, ts.URL, Request{
		Format:    "twitter-json",
		Archive:   archive,
		Algorithm: "EM-Ext",
		TopK:      3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Sources != 2 || out.Claims != 2 || out.Dependent != 1 {
		t.Fatalf("response: %+v", out)
	}
}

func TestFactFindErrors(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/factfind")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}

	// Malformed JSON.
	resp, err = http.Post(ts.URL+"/v1/factfind", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed status %d", resp.StatusCode)
	}

	// Unknown field (DisallowUnknownFields).
	resp, err = http.Post(ts.URL+"/v1/factfind", "application/json", strings.NewReader(`{"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field status %d", resp.StatusCode)
	}

	// Unknown algorithm.
	req := sampleRequest()
	req.Algorithm = "Oracle"
	r2, body := postJSON(t, ts.URL, req)
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-alg status %d: %s", r2.StatusCode, body)
	}

	// No messages.
	req = sampleRequest()
	req.Messages = nil
	r3, _ := postJSON(t, ts.URL, req)
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("no-messages status %d", r3.StatusCode)
	}

	// Out-of-range follow edge.
	req = sampleRequest()
	req.Follows = [][2]int{{0, 99}}
	r4, _ := postJSON(t, ts.URL, req)
	if r4.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-edge status %d", r4.StatusCode)
	}
}

// TestBodyLimit: a body over the configured MaxBodyBytes is the client's
// size problem, not a malformed payload — 413 with a message naming the
// limit, distinct from the 400 decode error.
func TestBodyLimit(t *testing.T) {
	ts := httptest.NewServer(New(Options{MaxBodyBytes: 64}))
	defer ts.Close()
	big := `{"sources":1,"messages":[{"source":0,"time":1,"text":"` + strings.Repeat("x", 500) + `"}]}`
	resp, err := http.Post(ts.URL+"/v1/factfind", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize status %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "64-byte limit") {
		t.Fatalf("413 error %q does not name the limit", e.Error)
	}
}

// TestSourceRangeRejected: a source count outside [0, 1<<20] or a message
// naming a source outside [0, sources) is the client's error, 400 — not a
// panic in the graph constructor or a 500 from the pipeline.
func TestSourceRangeRejected(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	for _, tc := range []struct {
		name string
		mut  func(*Request)
		want string
	}{
		{"negative sources", func(r *Request) { r.Sources = -1 }, "sources -1 outside"},
		{"too many sources", func(r *Request) { r.Sources = maxSources + 1 }, "outside [0, 1048576]"},
		{"message source", func(r *Request) { r.Messages[2].Source = 4 }, "message 2 has source 4 outside [0, 4)"},
		{"negative message source", func(r *Request) { r.Messages[0].Source = -1 }, "message 0 has source -1"},
	} {
		req := sampleRequest()
		tc.mut(&req)
		resp, body := postJSON(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: status %d body %s, want 400 naming %q", tc.name, resp.StatusCode, body, tc.want)
		}
	}
}

// TestHealthzMethod: /healthz is GET-only like every other endpoint.
func TestHealthzMethod(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/healthz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz status %d, want 405", resp.StatusCode)
	}
}

func TestFactFindComputeDeadline(t *testing.T) {
	ts := httptest.NewServer(New(Options{ComputeTimeout: time.Nanosecond}))
	defer ts.Close()
	req := sampleRequest()
	req.Algorithm = "EM-Ext"
	resp, body := postJSON(t, ts.URL, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var e struct {
		Error   string `json:"error"`
		Stopped string `json:"stopped"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Stopped != "deadline" {
		t.Fatalf("stopped = %q (%s)", e.Stopped, body)
	}
	if e.Error == "" {
		t.Fatalf("empty error message: %s", body)
	}
}
