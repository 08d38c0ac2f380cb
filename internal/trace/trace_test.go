package trace

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"depsense/internal/jsonl"
	"depsense/internal/runctx"
)

// testClock returns a deterministic clock advancing one millisecond per call.
func testClock() func() time.Time {
	t0 := time.Unix(1700000000, 0)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestStatusOf(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dctx, dcancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer dcancel()
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, StatusOK},
		{ctx.Err(), StatusCancelled},
		{dctx.Err(), StatusDeadline},
		{context.Canceled, StatusCancelled},
		{bytesErr{}, StatusError},
	} {
		if got := StatusOf(tc.err); got != tc.want {
			t.Errorf("StatusOf(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

type bytesErr struct{}

func (bytesErr) Error() string { return "boom" }

// TestBuilderCanonicalization feeds one builder the same event set in two
// different arrival orders (as a parallel fan-out would) and checks both
// finished traces agree event for event, with runs sorted by algorithm,
// events sorted by n, and attrs sorted by key.
func TestBuilderCanonicalization(t *testing.T) {
	fire := func(order []runctx.Iteration) *Trace {
		b := NewBuilder("t1", "test", testClock())
		b.SetAttr("workers", "4")
		b.SetAttr("algorithm", "EM-Ext")
		b.SetAttr("workers", "1") // overwrite wins
		hook := b.Hook()
		for _, it := range order {
			hook(it)
		}
		b.Stage("load", time.Millisecond)
		b.Stage("estimate", 2*time.Millisecond)
		return b.Finish(StatusOK, "")
	}
	events := []runctx.Iteration{
		{Algorithm: "EM-Ext", N: 3, LogLikelihood: -8, HasLL: true},
		{Algorithm: "EM-Ext", N: 1, LogLikelihood: -10, HasLL: true},
		{Algorithm: "EM-Ext", N: 4, LogLikelihood: -7, HasLL: true, Done: true, Stopped: runctx.StopConverged},
		{Algorithm: "EM-Ext", N: 2, LogLikelihood: -9, HasLL: true},
		{Algorithm: "gibbs-bound", N: 1, Samples: 500, Value: 0.01, HasValue: true},
	}
	reversed := make([]runctx.Iteration, len(events))
	for i, it := range events {
		reversed[len(events)-1-i] = it
	}
	a, b := fire(events), fire(reversed)

	if len(a.Runs) != 2 || a.Runs[0].Algorithm != "EM-Ext" || a.Runs[1].Algorithm != "gibbs-bound" {
		t.Fatalf("runs not sorted by algorithm: %+v", a.Runs)
	}
	wantAttrs := []Attr{{Key: "algorithm", Value: "EM-Ext"}, {Key: "workers", Value: "1"}}
	if !reflect.DeepEqual(a.Attrs, wantAttrs) {
		t.Fatalf("attrs = %+v, want %+v", a.Attrs, wantAttrs)
	}
	em := a.Runs[0].Events
	for i := 1; i < len(em); i++ {
		if em[i].N < em[i-1].N {
			t.Fatalf("events not in n order: %+v", em)
		}
	}
	la, err := Marshal(a.StripTimings())
	if err != nil {
		t.Fatal(err)
	}
	lb, err := Marshal(b.StripTimings())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(la, lb) {
		t.Fatalf("arrival order leaked into the canonical trace:\n%s\n%s", la, lb)
	}
	if got := a.Runs[0].Iterations(); got != 4 {
		t.Errorf("Iterations() = %d, want 4", got)
	}
	if got := a.Runs[0].Stopped(); got != runctx.StopConverged {
		t.Errorf("Stopped() = %q, want converged", got)
	}
	if got := a.Events(); got != 5 {
		t.Errorf("Events() = %d, want 5", got)
	}
	s := a.Summary()
	if s.ID != "t1" || s.Runs != 2 || s.Events != 5 || s.Status != StatusOK {
		t.Errorf("Summary() = %+v", s)
	}
}

// TestBuilderDropsEventsAfterFinish seals the builder and checks a late
// firing (a straggler goroutine) is dropped rather than racing the trace.
func TestBuilderDropsEventsAfterFinish(t *testing.T) {
	b := NewBuilder("t2", "test", testClock())
	hook := b.Hook()
	hook(runctx.Iteration{Algorithm: "EM-Ext", N: 1, HasLL: true, LogLikelihood: -1})
	tr := b.Finish(StatusOK, "")
	hook(runctx.Iteration{Algorithm: "EM-Ext", N: 2, HasLL: true, LogLikelihood: 0})
	if got := tr.Events(); got != 1 {
		t.Fatalf("late event recorded: %d events, want 1", got)
	}
}

func TestStripTimings(t *testing.T) {
	b := NewBuilder("t3", "test", testClock())
	hook := b.Hook()
	hook(runctx.Iteration{Algorithm: "EM-Ext", N: 1, HasLL: true, LogLikelihood: -2, Elapsed: 5 * time.Millisecond})
	b.Stage("estimate", 7*time.Millisecond)
	tr := b.Finish(StatusOK, "")

	if tr.StartUnixNS == 0 || tr.DurationNS == 0 {
		t.Fatalf("expected live timings, got start=%d dur=%d", tr.StartUnixNS, tr.DurationNS)
	}
	st := tr.StripTimings()
	if st.StartUnixNS != 0 || st.DurationNS != 0 ||
		st.Stages[0].DurationNS != 0 || st.Runs[0].Events[0].ElapsedNS != 0 {
		t.Fatalf("timings not stripped: %+v", st)
	}
	// The original must be untouched (StripTimings is a deep copy).
	if tr.Stages[0].DurationNS != 7e6 || tr.Runs[0].Events[0].ElapsedNS != 5e6 {
		t.Fatalf("StripTimings mutated the original: %+v", tr)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	mk := func(id, status string) *Trace {
		b := NewBuilder(id, "test", testClock())
		b.SetAttr("k", "v")
		hook := b.Hook()
		hook(runctx.Iteration{Algorithm: "EM-Ext", N: 1, HasLL: true, LogLikelihood: -3})
		hook(runctx.Iteration{Algorithm: "EM-Ext", N: 2, HasLL: true, LogLikelihood: -1,
			Done: true, Stopped: runctx.StopConverged})
		b.Stage("estimate", time.Millisecond)
		msg := ""
		if status == StatusError {
			msg = "boom"
		}
		return b.Finish(status, msg)
	}
	in := []*Trace{mk("a", StatusOK), mk("b", StatusError), mk("c", StatusCancelled)}

	var buf bytes.Buffer
	if err := jsonl.Write(&buf, in...); err != nil {
		t.Fatal(err)
	}
	// Blank lines are tolerated.
	buf.WriteString("\n")
	out, err := jsonl.Read[Trace](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip returned %d traces, want %d", len(out), len(in))
	}
	for i := range in {
		if !reflect.DeepEqual(in[i], out[i]) {
			t.Errorf("trace %d changed across the round trip:\nin:  %+v\nout: %+v", i, in[i], out[i])
		}
	}

	// A corrupt line fails loudly with its line number.
	if _, err := jsonl.Read[Trace](bytes.NewReader([]byte("{\"id\":\"ok\"}\n{nope\n"))); err == nil {
		t.Fatal("corrupt line silently accepted")
	}
}

// TestMarshalDeterministic encodes the same logical trace built twice and
// checks byte equality after StripTimings — the property the Workers
// determinism diffs rely on.
func TestMarshalDeterministic(t *testing.T) {
	mk := func() []byte {
		b := NewBuilder("d", "test", testClock())
		hook := b.Hook()
		for i := 1; i <= 3; i++ {
			hook(runctx.Iteration{Algorithm: "gibbs-bound", N: i,
				Samples: i * 100, Value: float64(i) * 0.25, HasValue: true})
		}
		line, err := Marshal(b.Finish(StatusOK, "").StripTimings())
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	if a, b := mk(), mk(); !bytes.Equal(a, b) {
		t.Fatalf("same logical trace, different bytes:\n%s\n%s", a, b)
	}
}
