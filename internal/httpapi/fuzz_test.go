package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzFactFindBody sends arbitrary bytes as a /v1/factfind body through the
// whole handler: decode, validation, and for a valid body the pipeline run.
// Whatever the client sends, the server must not panic and must not answer
// 5xx — every failure caused by the request's bytes is the client's error.
func FuzzFactFindBody(f *testing.F) {
	sample, err := json.Marshal(sampleRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"sources":1,"messages":[{"source":0,"time":1,"text":"a b c"}]} {}`))
	f.Add([]byte(`{"format":"twitter-json","archive":"{\"id_str\":\"1\",\"text\":\"a\",\"user\":{\"id_str\":\"5\"}}"}`))
	f.Add([]byte(`{"sources":2,"follows":[[0,5]],"messages":[{"source":0,"time":1,"text":"x"}]}`))
	// Found by this target: a negative source count panicked in the graph
	// constructor, and a message source outside [0, sources) was a 500.
	f.Add([]byte(`{"sources":-1,"messages":[{"source":0,"time":1,"text":"x"}]}`))
	f.Add([]byte(`{"sources":1,"messages":[{"source":3,"time":1,"text":"x"}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(Options{MaxBodyBytes: 1 << 12, CacheSize: -1})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/factfind", bytes.NewReader(body)))
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d for a client body: %s", rec.Code, rec.Body.String())
		}
	})
}
