package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

// jsonDecode is the endpoint's acceptance rule spelled out with
// encoding/json alone: one JSON value, unknown fields refused, nothing but
// whitespace after it. decodeRequest must agree with it on every body.
func jsonDecode(body []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, err
	}
	if err := dec.Decode(&json.RawMessage{}); !errors.Is(err, io.EOF) {
		return Request{}, errors.New("trailing data")
	}
	return req, nil
}

// FuzzDecodeRequestMatchesJSON: on arbitrary bytes, decodeRequest accepts
// exactly when encoding/json does, and then returns the same Request,
// nil-versus-empty slices included.
func FuzzDecodeRequestMatchesJSON(f *testing.F) {
	sample, err := json.Marshal(sampleRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	for _, s := range []string{
		``, `{}`, `null`, ` { } `, `[]`, `{"sources":1} {}`, `{"sources":1} x`, "{}\n\t\r ",
		`{"sources":1,"follows":null,"messages":null}`,
		`{"follows":[],"messages":[]}`,
		`{"follows":[[1,2],[3,4]]}`,
		`{"follows":[[1]]}`, `{"follows":[[1,2,3]]}`, `{"follows":[null]}`, `{"follows":[[1,null]]}`,
		`{"messages":[{}]}`, `{"messages":[null]}`, `{"messages":[{"text":null}]}`,
		`{"messages":[{"source":1,"source":2}]}`, `{"sources":1,"sources":2}`,
		`{"messages":[{"text":"a"}],"messages":[{"source":3}]}`,
		`{"Sources":1}`, `{"topk":3}`, `{"sources":1}`, `{"extra":1}`,
		`{"messages":[{"Text":"a"}]}`, `{"messages":[{"text":"a","x":1}]}`,
		`{"sources":1.0}`, `{"sources":1e2}`, `{"sources":-0}`, `{"sources":01}`, `{"sources":-}`,
		`{"sources":9223372036854775807}`, `{"sources":9223372036854775808}`,
		`{"messages":[{"time":-9223372036854775808}]}`, `{"messages":[{"time":-9223372036854775809}]}`,
		`{"sources":"1"}`, `{"sources":null}`, `{"topK":true}`,
		`{"algorithm":"a\"b\\c\/d\b\f\n\r\t"}`,
		`{"algorithm":"<>&  �éé\u0000"}`,
		`{"algorithm":"😀"}`, `{"algorithm":"\ud800"}`, `{"algorithm":"\udc00x"}`,
		`{"algorithm":"\'"}`, `{"algorithm":"\x"}`, `{"algorithm":"\u12"}`, `{"algorithm":"\u12g4"}`,
		"{\"algorithm\":\"tab\there\"}", "{\"algorithm\":\"\xff\"}", "{\"algorithm\":\"\xed\xa0\x80\"}",
		"{\"algorithm\":\"hé \U0001F600\"}", "{\"algorithm\":\"a\\n\xc3\"}",
		`{"archive":"x","format":"twitter-json"}`,
		"\xef\xbb\xbf{}", `{"sources":1,}`, `{,}`, `{"sources" 1}`, `{"sources":1`, `{"follows":[[1,2],]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := jsonDecode(body)
		got, err := decodeRequest(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: decodeRequest error %v, encoding/json error %v", body, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decodeRequest\n%#v\nencoding/json\n%#v", body, got, want)
		}
	})
}

// FuzzMarshaledRequestFastPath: every body json.Marshal writes for a
// Request, indented or not, takes the one-pass scanner, not the fallback,
// and decodes to what encoding/json reads from it. Arbitrary text bytes
// cover the HTML escapes, U+2028/2029, control characters and invalid UTF-8
// (written as �).
func FuzzMarshaledRequestFastPath(f *testing.F) {
	f.Add(4, 5, int64(1), 1, 0, "Voting", "", "", []byte("witness <2> &   reported\x00\x7f fire\xff"), []byte{3, 9, 40}, uint8(0))
	f.Add(-1, 0, int64(-1)<<63, -1<<63, 1<<63-1, "EM-Ext", "twitter-json", `{"id_str":"1"}`, []byte(nil), []byte(nil), uint8(7))
	f.Fuzz(func(t *testing.T, sources, topK int, time int64, f0, f1 int,
		algorithm, format, archive string, text, cuts []byte, shape uint8) {
		req := Request{Sources: sources, Archive: archive, Format: format, Algorithm: algorithm, TopK: topK}
		switch shape % 3 {
		case 1:
			req.Follows = [][2]int{}
		case 2:
			req.Follows = [][2]int{{f0, f1}, {f1, f0}}
		}
		if shape&4 == 0 {
			req.Messages = []Message{}
			for _, c := range cuts {
				n := min(int(c)%17, len(text))
				req.Messages = append(req.Messages, Message{Source: sources - int(c), Time: time * int64(c), Text: string(text[:n])})
				text = text[n:]
			}
		}
		compact, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(req, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, indented} {
			got, ok := decodeCanonical(body)
			if !ok {
				t.Fatalf("%q: marshaled body left the fast path", body)
			}
			want, err := jsonDecode(body)
			if err != nil {
				t.Fatalf("%q: encoding/json: %v", body, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: fast path\n%#v\nencoding/json\n%#v", body, got, want)
			}
		}
	})
}

// perfbenchBodies builds n /v1/factfind bodies the way the repository's
// end-to-end benchmark does: each a Ukraine 1/20 world (~360 messages,
// ~38 KB) from its own seed, EM-Ext, topK 20.
func perfbenchBodies(tb testing.TB, n int) [][]byte {
	tb.Helper()
	rng := randutil.New(1)
	bodies := make([][]byte, n)
	for k := range bodies {
		w, err := twittersim.Generate(twittersim.Small("Ukraine", 20), randutil.New(rng.Int63()))
		if err != nil {
			tb.Fatal(err)
		}
		req := Request{Sources: w.Graph.N(), Algorithm: "EM-Ext", TopK: 20}
		for i := 0; i < w.Graph.N(); i++ {
			for _, anc := range w.Graph.Ancestors(i) {
				req.Follows = append(req.Follows, [2]int{i, anc})
			}
		}
		for _, tw := range w.Tweets {
			req.Messages = append(req.Messages, Message{Source: tw.Source, Time: int64(tw.ID), Text: tw.Text})
		}
		if bodies[k], err = json.Marshal(req); err != nil {
			tb.Fatal(err)
		}
	}
	return bodies
}

var decodeSink Request

// BenchmarkDecodeRequest decodes end-to-end-benchmark-shaped bodies with
// decodeRequest and, as the comparison arm, with encoding/json alone.
func BenchmarkDecodeRequest(b *testing.B) {
	bodies := perfbenchBodies(b, 16)
	for _, arm := range []struct {
		name   string
		decode func([]byte) (Request, error)
	}{
		{"scanner", decodeRequest},
		{"encoding-json", jsonDecode},
	} {
		b.Run(arm.name, func(b *testing.B) {
			total := 0
			for _, body := range bodies {
				total += len(body)
			}
			b.SetBytes(int64(total / len(bodies)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req, err := arm.decode(bodies[i%len(bodies)])
				if err != nil {
					b.Fatal(err)
				}
				decodeSink = req
			}
		})
	}
}

// TestOversizedMalformedBodyIs413: the body is read whole before it is
// parsed, so a body over the limit is a 413 even when its first byte is
// already malformed.
func TestOversizedMalformedBodyIs413(t *testing.T) {
	srv := New(Options{MaxBodyBytes: 64})
	rec := httptest.NewRecorder()
	body := strings.NewReader("x" + strings.Repeat(" ", 500))
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/factfind", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body.String())
	}
}
