package trace

import (
	"fmt"
	"sync"
	"testing"
)

func mkTrace(id, status string) *Trace {
	b := NewBuilder(id, "test", testClock())
	hook := b.Hook()
	hook(iter("EM-Ext", 1, -5))
	return b.Finish(status, "")
}

func TestFlightRecorderCapacityBounded(t *testing.T) {
	fr := NewFlightRecorder(4, 2)
	for i := 0; i < 100; i++ {
		fr.Record(mkTrace(fmt.Sprintf("ok-%d", i), StatusOK))
	}
	for i := 0; i < 50; i++ {
		fr.Record(mkTrace(fmt.Sprintf("bad-%d", i), StatusError))
	}
	if got := fr.Len(); got != 6 {
		t.Fatalf("Len() = %d, want 4+2", got)
	}
	added, evicted := fr.Stats()
	if added != 150 || evicted != 144 {
		t.Fatalf("Stats() = (%d, %d), want (150, 144)", added, evicted)
	}
	// Only the newest of each class survive; the index holds exactly the
	// retained IDs (evicted traces must not leak index entries — that is the
	// memory bound).
	for _, id := range []string{"ok-96", "ok-99", "bad-48", "bad-49"} {
		if _, ok := fr.Get(id); !ok {
			t.Errorf("retained trace %q not found", id)
		}
	}
	for _, id := range []string{"ok-0", "ok-95", "bad-0", "bad-47"} {
		if _, ok := fr.Get(id); ok {
			t.Errorf("evicted trace %q still indexed", id)
		}
	}
}

// TestFlightRecorderFailedRetention is the design property of the split
// rings: a burst of healthy traffic can never evict a failed trace.
func TestFlightRecorderFailedRetention(t *testing.T) {
	fr := NewFlightRecorder(2, 2)
	fr.Record(mkTrace("crash", StatusError))
	for i := 0; i < 1000; i++ {
		fr.Record(mkTrace(fmt.Sprintf("ok-%d", i), StatusOK))
	}
	if _, ok := fr.Get("crash"); !ok {
		t.Fatal("healthy traffic evicted the failed trace")
	}
	// Cancelled and deadline traces count as failed too.
	fr.Record(mkTrace("slow", StatusDeadline))
	for i := 0; i < 100; i++ {
		fr.Record(mkTrace(fmt.Sprintf("ok2-%d", i), StatusOK))
	}
	if _, ok := fr.Get("slow"); !ok {
		t.Fatal("healthy traffic evicted the deadline trace")
	}
}

func TestFlightRecorderIndexNewestFirst(t *testing.T) {
	fr := NewFlightRecorder(8, 8)
	fr.Record(mkTrace("a", StatusOK))
	fr.Record(mkTrace("b", StatusError))
	fr.Record(mkTrace("c", StatusOK))
	idx := fr.Index()
	if len(idx) != 3 || idx[0].ID != "c" || idx[1].ID != "b" || idx[2].ID != "a" {
		t.Fatalf("Index() = %+v, want newest-first c,b,a", idx)
	}
	if idx[1].Status != StatusError {
		t.Fatalf("summary status = %q, want error", idx[1].Status)
	}
}

func TestFlightRecorderDuplicateID(t *testing.T) {
	fr := NewFlightRecorder(2, 2)
	fr.Record(mkTrace("dup", StatusOK))
	second := mkTrace("dup", StatusOK)
	fr.Record(second)
	got, ok := fr.Get("dup")
	if !ok || got != second {
		t.Fatal("Get should return the newest trace under a duplicated ID")
	}
	// Aging the first "dup" out of the ring must not delete the newer entry.
	fr.Record(mkTrace("x", StatusOK)) // evicts first "dup"
	if _, ok := fr.Get("dup"); !ok {
		t.Fatal("evicting the stale duplicate removed the live index entry")
	}
}

func TestFlightRecorderZeroDefaults(t *testing.T) {
	fr := NewFlightRecorder(0, -1)
	if len(fr.ok.buf) != DefaultCompleted || len(fr.bad.buf) != DefaultFailed {
		t.Fatalf("defaults not applied: %d/%d", len(fr.ok.buf), len(fr.bad.buf))
	}
	// The failed ring follows the completed one: a quarter of it, never
	// below DefaultFailed.
	for _, tc := range []struct{ completed, want int }{{8, DefaultFailed}, {200, 50}} {
		if fr := NewFlightRecorder(tc.completed, 0); len(fr.bad.buf) != tc.want {
			t.Errorf("completed %d: failed ring %d, want %d", tc.completed, len(fr.bad.buf), tc.want)
		}
	}
}

// TestFlightRecorderConcurrent hammers Record from many goroutines while
// readers call Get, Index, Len, and Stats — run under -race this is the
// regression test for the /debug/runs read path racing live traffic.
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(8, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				status := StatusOK
				if i%5 == 0 {
					status = StatusCancelled
				}
				fr.Record(mkTrace(fmt.Sprintf("w%d-%d", w, i), status))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, s := range fr.Index() {
					if tr, ok := fr.Get(s.ID); ok && tr.ID != s.ID {
						t.Errorf("Get(%q) returned trace %q", s.ID, tr.ID)
					}
				}
				fr.Len()
				fr.Stats()
			}
		}(r)
	}
	wg.Wait()
	if got := fr.Len(); got > 12 {
		t.Fatalf("Len() = %d exceeds capacity 8+4", got)
	}
}
