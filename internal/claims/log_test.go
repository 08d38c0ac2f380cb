package claims

import (
	"bytes"
	"strings"
	"testing"
)

func sampleLog(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	recs := []LogRecord{
		{Kind: RecordTweet, Seq: 0, Source: 3, Time: 1000, Text: "explosion at bridge", RetweetOf: -1},
		{Kind: RecordTweet, Seq: 1, Source: 5, Time: 2000, Text: "rt explosion at bridge", RetweetOf: 3},
		{Kind: RecordCommit, Batch: 0, Tweets: 2, SrcSeq: 1},
		{Kind: RecordTweet, Seq: 2, Source: 1, Time: 3000, Text: "power outage downtown", RetweetOf: -1},
		{Kind: RecordCommit, Batch: 1, Tweets: 3, SrcSeq: 2},
	}
	for _, rec := range recs {
		if err := lw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLogRoundTrip(t *testing.T) {
	data := sampleLog(t)
	recs, torn, err := ReadLog(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if torn != nil {
		t.Fatalf("clean log reported torn tail %+v", torn)
	}
	if len(recs) != 5 {
		t.Fatalf("read %d records, want 5", len(recs))
	}
	if recs[0].Text != "explosion at bridge" || recs[0].RetweetOf != -1 {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[1].RetweetOf != 3 {
		t.Fatalf("record 1 retweetOf = %d, want 3", recs[1].RetweetOf)
	}
	if recs[2].Kind != RecordCommit || recs[2].Tweets != 2 || recs[2].SrcSeq != 1 {
		t.Fatalf("record 2 = %+v", recs[2])
	}
}

// TestReadLogTornTail is the crash-mid-append regression: a truncated final
// line is skipped and reported, and every complete record before it is
// still replayed.
func TestReadLogTornTail(t *testing.T) {
	data := sampleLog(t)
	// Tear the log mid-way through its final record, as a crash between
	// write and flush would: the last line loses its tail and newline.
	torn := data[:len(data)-9]
	tornLine := torn[bytes.LastIndexByte(torn[:len(torn)-1], '\n')+1:]

	recs, tail, err := ReadLog(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn log failed replay: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4 (all complete lines)", len(recs))
	}
	if tail == nil {
		t.Fatal("torn tail not reported")
	}
	if tail.Line != 5 {
		t.Fatalf("torn line = %d, want 5", tail.Line)
	}
	if tail.Bytes != len(tornLine) {
		t.Fatalf("torn bytes = %d, want %d", tail.Bytes, len(tornLine))
	}
	// Truncating the log at len-tail.Bytes removes exactly the torn bytes,
	// which is how recovery compacts the file.
	healed := torn[:len(torn)-tail.Bytes]
	recs2, tail2, err := ReadLog(bytes.NewReader(healed))
	if err != nil || tail2 != nil {
		t.Fatalf("healed log: err=%v tail=%+v", err, tail2)
	}
	if len(recs2) != 4 {
		t.Fatalf("healed log has %d records, want 4", len(recs2))
	}
}

// TestReadLogInteriorCorruptionFails: a malformed line with well-formed
// records after it is corruption, not a crash tear, and must error.
func TestReadLogInteriorCorruptionFails(t *testing.T) {
	data := sampleLog(t)
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = "{\"kind\":\"tweet\",\"seq\":1,\n"
	if _, _, err := ReadLog(strings.NewReader(strings.Join(lines, ""))); err == nil {
		t.Fatal("interior corruption accepted")
	}
}

// TestReadLogUnknownKindTail: a final record whose kind is gibberish (torn
// inside the kind string, say) is treated as torn, not fatal.
func TestReadLogUnknownKindTail(t *testing.T) {
	data := append(sampleLog(t), []byte("{\"kind\":\"twe\"}")...)
	recs, tail, err := ReadLog(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || tail == nil {
		t.Fatalf("recs=%d tail=%+v, want 5 records and a torn tail", len(recs), tail)
	}
}

func TestLogWriterRejectsUnknownKind(t *testing.T) {
	lw := NewLogWriter(&bytes.Buffer{})
	if err := lw.Append(LogRecord{Kind: "bogus"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestReadLogEmpty(t *testing.T) {
	recs, tail, err := ReadLog(strings.NewReader(""))
	if err != nil || tail != nil || len(recs) != 0 {
		t.Fatalf("empty log: recs=%d tail=%+v err=%v", len(recs), tail, err)
	}
}
