package claims

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes into the dataset JSON decoder. The
// properties under test: decoding never panics on any input, and any input
// that decodes successfully survives an encode→decode round trip with an
// identical in-memory dataset (the codec normalizes — sorted indexes,
// dependent-mark folding — so a second trip must be a fixed point).
func FuzzDecode(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{}`),
		[]byte(`{"sources":2,"assertions":2,"claims":[{"source":0,"assertion":1}]}`),
		[]byte(`{"sources":3,"assertions":2,"claims":[{"source":1,"assertion":0,"dependent":true}],"silentDependent":[{"source":2,"assertion":0}]}`),
		[]byte(`{"sources":-1,"assertions":-1}`),
		[]byte(`{"sources":9999999999,"assertions":1}`),
		[]byte(`{"sources":1,"assertions":1,"claims":[{"source":5,"assertion":0}]}`),
		[]byte(`{"sources":2,"assertions":1,"claims":[{"source":0,"assertion":0}],"silentDependent":[{"source":0,"assertion":0}]}`),
		[]byte(`not json`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Dataset
		if err := json.Unmarshal(data, &d); err != nil {
			return // malformed or rejected input: an error is the contract
		}
		if d.N() < 0 || d.M() < 0 || d.N() > MaxWireDim || d.M() > MaxWireDim {
			t.Fatalf("decoded dimensions escape validation: n=%d m=%d", d.N(), d.M())
		}
		enc, err := json.Marshal(&d)
		if err != nil {
			t.Fatalf("re-encode of successfully decoded dataset failed: %v", err)
		}
		var d2 Dataset
		if err := json.Unmarshal(enc, &d2); err != nil {
			t.Fatalf("decode of our own encoding failed: %v\nencoding: %s", err, enc)
		}
		if !reflect.DeepEqual(&d, &d2) {
			t.Fatalf("round trip not a fixed point:\nfirst:  %+v\nsecond: %+v", d.Summarize(), d2.Summarize())
		}
	})
}

// FuzzReadLog feeds the claim-log WAL reader arbitrary bytes and every
// crash-cut prefix of a valid log. The properties under test: ReadLog
// never panics; a clean read holds only known record kinds; a valid log
// cut at any byte decodes to exactly the records whose lines are complete,
// with a TornTail for a partial final line and no error, and truncating
// the torn bytes heals it; and a malformed line followed by a valid record
// is an error, not a tear.
func FuzzReadLog(f *testing.F) {
	sample := sampleLog(f)
	f.Add(sample, uint16(len(sample)))
	f.Add(sample, uint16(len(sample)-9))
	f.Add([]byte("{\"kind\":\"tweet\"}\n{\"kind\":"), uint16(3))
	f.Add([]byte("not json\n\n  \r\n"), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		if recs, torn, err := ReadLog(bytes.NewReader(data)); err == nil {
			for _, rec := range recs {
				if rec.Kind != RecordTweet && rec.Kind != RecordCommit {
					t.Fatalf("record of unknown kind %q accepted", rec.Kind)
				}
			}
			if torn != nil && (torn.Line < 1 || torn.Bytes < 1) {
				t.Fatalf("implausible torn tail %+v", torn)
			}
		}

		valid, starts := fuzzLog(t, data)
		full, torn, err := ReadLog(bytes.NewReader(valid))
		if err != nil || torn != nil || len(full) != len(starts) {
			t.Fatalf("valid log: %d records, torn %+v, err %v; want %d records", len(full), torn, err, len(starts))
		}
		c := int(cut) % (len(valid) + 1)
		// k complete lines precede the cut; a cut on the closing newline
		// leaves the last record whole.
		k := 0
		for k < len(starts) && lineEnd(valid, starts, k) <= c {
			k++
		}
		recs, torn, err := ReadLog(bytes.NewReader(valid[:c]))
		if err != nil {
			t.Fatalf("cut at byte %d of %d: %v", c, len(valid), err)
		}
		if !reflect.DeepEqual(recs, full[:k]) && !(len(recs) == 0 && k == 0) {
			t.Fatalf("cut at byte %d: %d records, want the %d complete ones", c, len(recs), k)
		}
		partial := k < len(starts) && c > starts[k]
		if !partial {
			if torn != nil {
				t.Fatalf("cut at byte %d on a line boundary reported torn tail %+v", c, torn)
			}
			return
		}
		if torn == nil || torn.Line != k+1 || torn.Bytes != c-starts[k] {
			t.Fatalf("cut at byte %d: torn tail %+v, want line %d with %d bytes", c, torn, k+1, c-starts[k])
		}
		healed, tail, err := ReadLog(bytes.NewReader(valid[:c-torn.Bytes]))
		if err != nil || tail != nil || len(healed) != k {
			t.Fatalf("healed log: %d records, torn %+v, err %v; want %d records", len(healed), tail, err, k)
		}
		corrupt := append(append(append([]byte{}, valid[:c]...), '\n'), valid[:lineEnd(valid, starts, 0)+1]...)
		if _, _, err := ReadLog(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("malformed line %d followed by a valid record accepted", k+1)
		}
	})
}

// fuzzLog encodes a valid claim log of one to eight tweet records whose
// texts are cut from data, with a commit after every second tweet, and
// returns it with the byte offset at which each line starts.
func fuzzLog(t *testing.T, data []byte) ([]byte, []int) {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	var starts []int
	add := func(rec LogRecord) {
		starts = append(starts, buf.Len())
		if err := lw.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := lw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	n := min(8, 1+len(data)/16)
	for i := 0; i < n; i++ {
		add(LogRecord{
			Kind: RecordTweet, Seq: i, Source: i % 3, Time: int64(i) * 1000,
			Text: string(data[i*len(data)/n : (i+1)*len(data)/n]), RetweetOf: i%2 - 1,
		})
		if i%2 == 1 {
			add(LogRecord{Kind: RecordCommit, Batch: i / 2, Tweets: i + 1, SrcSeq: i})
		}
	}
	return buf.Bytes(), starts
}

// lineEnd is the offset of line i's terminating newline.
func lineEnd(log []byte, starts []int, i int) int {
	if i+1 < len(starts) {
		return starts[i+1] - 1
	}
	return len(log) - 1
}
