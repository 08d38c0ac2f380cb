package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"depsense/internal/depgraph"
	"depsense/internal/obs"
)

func snapshotBatches() [][]depgraph.Event {
	return [][]depgraph.Event{
		{
			{Source: 0, Assertion: 0, Time: 1},
			{Source: 1, Assertion: 0, Time: 2},
			{Source: 2, Assertion: 1, Time: 3},
		},
		{
			{Source: 3, Assertion: 1, Time: 4},
			{Source: 1, Assertion: 2, Time: 5},
		},
		{
			{Source: 4, Assertion: 2, Time: 6},
			{Source: 0, Assertion: 3, Time: 7},
		},
	}
}

// TestSnapshotRestoreMatchesUninterrupted is the warm-restart contract:
// snapshot after batch k, restore (through JSON, as the persistence layer
// does), feed the remaining batches — and the final state is byte-identical
// to the uninterrupted run's snapshot, with per-batch results equal along
// the way.
func TestSnapshotRestoreMatchesUninterrupted(t *testing.T) {
	opts := Options{}
	batches := snapshotBatches()

	full := New(opts)
	if err := full.ObserveFollow(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := full.ObserveFollow(3, 2); err != nil {
		t.Fatal(err)
	}
	var wantResults [][]float64
	for _, b := range batches {
		res, err := full.AddBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		wantResults = append(wantResults, append([]float64(nil), res.Posterior...))
	}

	const cut = 2 // snapshot after this many batches
	part := New(opts)
	if err := part.ObserveFollow(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := part.ObserveFollow(3, 2); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:cut] {
		if _, err := part.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.Marshal(part.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Restore does not refit: the latest estimate is derived state.
	if _, err := restored.Result(); !errors.Is(err, ErrNoData) {
		t.Fatalf("Result after restore: want ErrNoData, got %v", err)
	}
	if got, want := restored.Stats(), part.Stats(); got != want {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}

	for i, b := range batches[cut:] {
		res, err := restored.AddBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Posterior, wantResults[cut+i]) {
			t.Fatalf("batch %d after restore diverged from uninterrupted run", cut+i)
		}
	}

	finalA, err := json.Marshal(full.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	finalB, err := json.Marshal(restored.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(finalA) != string(finalB) {
		t.Fatalf("final snapshots differ:\nuninterrupted: %s\nrestored:      %s", finalA, finalB)
	}
	if st := restored.Stats(); st.WarmFits != 2 || st.ColdFits != 1 {
		t.Fatalf("restored fit split = %+v, want 1 cold + 2 warm", st)
	}
}

// TestSnapshotFollowsSorted: snapshots serialize follow edges sorted, so
// observation order does not leak into the bytes.
func TestSnapshotFollowsSorted(t *testing.T) {
	a := New(Options{})
	b := New(Options{})
	edges := [][2]int{{3, 1}, {1, 0}, {2, 0}, {3, 0}}
	for _, f := range edges {
		if err := a.ObserveFollow(f[0], f[1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(edges) - 1; i >= 0; i-- {
		if err := b.ObserveFollow(edges[i][0], edges[i][1]); err != nil {
			t.Fatal(err)
		}
	}
	sa, _ := json.Marshal(a.Snapshot())
	sb, _ := json.Marshal(b.Snapshot())
	if string(sa) != string(sb) {
		t.Fatalf("snapshot bytes depend on follow observation order:\n%s\n%s", sa, sb)
	}
	want := [][2]int{{1, 0}, {2, 0}, {3, 0}, {3, 1}}
	if got := a.Snapshot().Follows; !reflect.DeepEqual(got, want) {
		t.Fatalf("follows = %v, want %v", got, want)
	}
}

func TestRestoreRejectsBadSnapshot(t *testing.T) {
	cases := []*Snapshot{
		nil,
		{Sources: -1},
		{Sources: 1, Assertions: 1, Events: []depgraph.Event{{Source: 2, Assertion: 0}}},
		{Sources: 2, Assertions: 1, Follows: [][2]int{{0, 5}}},
		{Sources: 2, Assertions: 1, Params: nil, Events: []depgraph.Event{{Source: 0, Assertion: 2}}},
	}
	for i, snap := range cases {
		if _, err := Restore(snap, Options{}); err == nil {
			t.Fatalf("case %d: bad snapshot accepted", i)
		}
	}
}

// TestRestoreRefusesCorruptSnapshotBytes: a damaged snapshot.json must be
// refused with an error, not crash the process. An id-space count no id
// references used to size the follow graph directly, so a huge one
// panicked in makeslice.
func TestRestoreRefusesCorruptSnapshotBytes(t *testing.T) {
	for _, raw := range []string{
		`{"sources":4611686018427387904,"assertions":1,"events":[{"source":0,"assertion":0,"time":1}]}`,
		`{"sources":1,"assertions":4611686018427387904,"events":[{"source":0,"assertion":0,"time":1}]}`,
		`{"sources":3,"assertions":1,"events":[{"source":0,"assertion":0,"time":1}]}`,
		`{"sources":3,"assertions":1,"events":[{"source":0,"assertion":0,"time":1}],"follows":[[2,1],[1,0]]}`,
		`{"sources":3,"assertions":1,"events":[{"source":0,"assertion":0,"time":1}],"follows":[[1,0],[1,0],[2,1]]}`,
		`{"sources":3,"assertions":1,"events":[{"source":0,"assertion":0,"time":1}],"follows":[[1,0],[2,2]]}`,
		`{"sources":1,"assertions":1,"events":[{"source":0,"assertion":0,"time":1}],"params":{"sources":[{"a":2,"b":0.5,"f":0.5,"g":0.5}],"z":0.5}}`,
	} {
		var snap Snapshot
		if err := json.Unmarshal([]byte(raw), &snap); err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(&snap, Options{}); err == nil {
			t.Fatalf("corrupt snapshot accepted: %s", raw)
		}
	}
}

// FuzzRestore: Restore never panics on decoded snapshot bytes, and a
// snapshot it accepts re-serializes to the same bytes. Inputs whose events
// or follows reference source ids above 1<<16 are skipped: Restore rightly
// accepts those and allocates in proportion to them.
func FuzzRestore(f *testing.F) {
	e := New(Options{})
	if err := e.ObserveFollow(1, 0); err != nil {
		f.Fatal(err)
	}
	if _, err := e.AddBatch(snapshotBatches()[0]); err != nil {
		f.Fatal(err)
	}
	honest, err := json.Marshal(e.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Restore(e.Snapshot(), Options{}); err != nil {
		f.Fatalf("honest snapshot refused: %v", err)
	}
	f.Add(honest)
	f.Add([]byte(`{"sources":0,"assertions":0,"events":[]}`))
	f.Add([]byte(`{"sources":4611686018427387904,"assertions":1,"events":[{"source":0,"assertion":0,"time":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap Snapshot
		if json.Unmarshal(data, &snap) != nil {
			return
		}
		const maxFuzzSource = 1 << 16
		for _, ev := range snap.Events {
			if ev.Source > maxFuzzSource {
				return
			}
		}
		for _, fl := range snap.Follows {
			if fl[0] > maxFuzzSource || fl[1] > maxFuzzSource {
				return
			}
		}
		restored, err := Restore(&snap, Options{})
		if err != nil {
			return
		}
		want, err := json.Marshal(&snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(restored.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("accepted snapshot re-serializes differently:\nin:  %s\nout: %s", want, got)
		}
	})
}

// TestStreamGauges: the size gauges and the last-refit-age gauge land in
// the registry after fits, and ExportGauges refreshes the age on demand.
func TestStreamGauges(t *testing.T) {
	reg := obs.NewRegistry()
	now := time.Unix(100, 0)
	e := New(Options{Metrics: reg,
		Clock: func() time.Time { return now }})
	if err := e.ObserveFollow(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddBatch([]depgraph.Event{
		{Source: 0, Assertion: 0, Time: 1},
		{Source: 1, Assertion: 0, Time: 2},
		{Source: 2, Assertion: 1, Time: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge(MetricSources, "").Value(); got != 3 {
		t.Fatalf("sources gauge = %v, want 3", got)
	}
	if got := reg.Gauge(MetricAssertions, "").Value(); got != 2 {
		t.Fatalf("assertions gauge = %v, want 2", got)
	}
	if got := reg.Gauge(MetricClaims, "").Value(); got != 3 {
		t.Fatalf("claims gauge = %v, want 3", got)
	}
	if got := reg.Gauge(MetricLastRefitAge, "").Value(); got != 0 {
		t.Fatalf("refit age right after fit = %v, want 0", got)
	}
	// Ops refresh the age gauge on scrape; 40 seconds later it reads 40.
	now = now.Add(40 * time.Second)
	e.ExportGauges()
	if got := reg.Gauge(MetricLastRefitAge, "").Value(); got != 40 {
		t.Fatalf("refit age after 40s = %v, want 40", got)
	}
}
