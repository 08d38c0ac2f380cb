package jsonl_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"depsense/internal/jsonl"
	"depsense/internal/qual"
	"depsense/internal/runctx"
	"depsense/internal/trace"
)

func sampleTrace(id string) *trace.Trace {
	base := time.Unix(1700000000, 0)
	n := 0
	b := trace.NewBuilder(id, "apollo", func() time.Time { n++; return base.Add(time.Duration(n) * time.Millisecond) })
	b.SetAttr("algorithm", "EM-Ext")
	b.Stage("fit", 5*time.Millisecond)
	hook := b.Hook()
	for i, ll := range []float64{-90, -60, -50} {
		hook(runctx.Iteration{Algorithm: "EM-Ext", N: i + 1, LogLikelihood: ll, HasLL: true,
			Done: i == 2, Stopped: runctx.StopConverged})
	}
	return b.Finish(trace.StatusOK, "")
}

func sampleVerdict(tick int) *qual.Verdict {
	return &qual.Verdict{
		Tick: tick, Sources: 10, Assertions: 40, Claims: 160,
		Calibration: qual.Calibration{Reference: "truth", Assertions: 40, Labeled: 30, ECE: 0.21},
		Drift:       &qual.DriftStatus{SourcesTracked: 10, MaxStat: 0.01, MaxStatSource: 3, EdgeRate: -1},
		Alarms: []qual.Alarm{{Kind: qual.AlarmSourceReliability, Source: 3, Tick: tick,
			Stat: 0.5, Threshold: 0.4, Window: []float64{0.8, 0.3}, TraceID: "qual-x"}},
	}
}

// encode is the canonical encoding the reader's output must reproduce.
func encode[T any](t *testing.T, recs []*T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := jsonl.Write(&buf, recs...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTripAndAppend: WriteFile then Append yields one file that reads
// back to the same records and the same bytes, blank lines skipped.
func TestRoundTripAndAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), trace.SpillFile)
	if err := jsonl.WriteFile(path, sampleTrace("a"), sampleTrace("b")); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Append(path, sampleTrace("c")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := jsonl.Read[trace.Trace](bytes.NewReader(append([]byte("\n  \n"), raw...)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2].ID != "c" {
		t.Fatalf("read %d traces: %+v", len(got), got)
	}
	if again := encode(t, got); !bytes.Equal(again, raw) {
		t.Fatalf("re-encoding differs:\n%s\n---\n%s", again, raw)
	}
	// WriteFile replaces, Append does not.
	if err := jsonl.WriteFile(path, sampleTrace("d")); err != nil {
		t.Fatal(err)
	}
	if got, err := jsonl.ReadFile[trace.Trace](path); err != nil || len(got) != 1 {
		t.Fatalf("after WriteFile: %d traces, %v", len(got), err)
	}
}

// TestStrictRejection: a spill of the other kind, a foreign field, a torn
// or non-object line, and trailing data all fail with file and line; the
// records before the bad line come back with the error.
func TestStrictRejection(t *testing.T) {
	dir := t.TempDir()
	traces := filepath.Join(dir, trace.SpillFile)
	if err := jsonl.WriteFile(traces, sampleTrace("a")); err != nil {
		t.Fatal(err)
	}
	if got, err := jsonl.ReadFile[qual.Verdict](traces); err == nil ||
		!strings.Contains(err.Error(), traces+": jsonl: line 1:") ||
		!strings.Contains(err.Error(), `unknown field "id"`) || len(got) != 0 {
		t.Fatalf("traces read as verdicts: %d records, err %v", len(got), err)
	}

	good := string(encode(t, []*qual.Verdict{sampleVerdict(0)}))
	for _, tc := range []struct{ name, bad, want string }{
		{"foreign field", `{"tick":1,"color":"red"}`, `unknown field "color"`},
		{"torn", `{"tick":1,"sour`, "unexpected EOF"},
		{"not an object", `[1,2]`, "not a JSON object"},
		{"null", `null`, "not a JSON object"},
		{"trailing data", `{"tick":1} {"tick":2}`, "unexpected data after the record"},
		{"wrong type", `{"tick":"one"}`, "cannot unmarshal"},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".jsonl")
		if err := os.WriteFile(path, []byte(good+"\n"+tc.bad+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := jsonl.ReadFile[qual.Verdict](path)
		if err == nil || !strings.Contains(err.Error(), path+": jsonl: line 3:") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want line 3 and %q", tc.name, err, tc.want)
		}
		if len(got) != 1 || got[0].Tick != 0 {
			t.Errorf("%s: records before the bad line = %+v", tc.name, got)
		}
	}
}

// FuzzRead: the strict reader never panics on arbitrary bytes, for either
// record kind, and whatever it accepts re-encodes to bytes that read back
// to records with the same encoding.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	_ = jsonl.Write(&seed, sampleTrace("a"), sampleTrace("b"))
	f.Add(seed.Bytes())
	seed.Reset()
	_ = jsonl.Write(&seed, sampleVerdict(0), sampleVerdict(1))
	f.Add(seed.Bytes())
	f.Add([]byte("{}\n\n{\"id\":\"x\",\"runs\":[null]}\n"))
	f.Add([]byte(`{"tick":1,"alarms":[],"bound":null}`))
	f.Add([]byte("{\"id\":\"\\ud800\"}\n{\"tick\":-0}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip[trace.Trace](t, data)
		roundTrip[qual.Verdict](t, data)
	})
}

func roundTrip[T any](t *testing.T, data []byte) {
	recs, err := jsonl.Read[T](bytes.NewReader(data))
	if err != nil {
		return
	}
	first := encode(t, recs)
	again, err := jsonl.Read[T](bytes.NewReader(first))
	if err != nil {
		t.Fatalf("re-read of accepted records failed: %v\n%s", err, first)
	}
	if second := encode(t, again); !bytes.Equal(first, second) {
		t.Fatalf("records changed across a round trip:\n%s\n---\n%s", first, second)
	}
}
