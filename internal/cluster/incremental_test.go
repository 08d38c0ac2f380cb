package cluster

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

// TestIncrementalMatchesBatch is the refactor's core contract: feeding a
// stream through Add, split across arbitrary batch boundaries, yields
// exactly the assignment Cluster produces on the whole slice.
func TestIncrementalMatchesBatch(t *testing.T) {
	docs := twittersimSmall(t)
	batch := (&Leader{}).Cluster(docs)

	inc := (&Leader{}).Incremental()
	got := make([]int, len(docs))
	for d, doc := range docs {
		got[d] = inc.Add(doc)
	}
	for d := range docs {
		if got[d] != batch.Cluster[d] {
			t.Fatalf("doc %d: incremental cluster %d, batch %d", d, got[d], batch.Cluster[d])
		}
	}
	if inc.NumClusters() != batch.NumClusters {
		t.Fatalf("clusters: incremental %d, batch %d", inc.NumClusters(), batch.NumClusters)
	}
	leaders := inc.Leaders()
	for c := range leaders {
		if leaders[c] != batch.Leaders[c] {
			t.Fatalf("cluster %d leader: incremental %d, batch %d", c, leaders[c], batch.Leaders[c])
		}
	}
}

// TestIncrementalStableIDsAcrossBatches: a cluster id assigned in an early
// batch keeps meaning the same assertion for every later document.
func TestIncrementalStableIDsAcrossBatches(t *testing.T) {
	inc := (&Leader{}).Incremental()
	first := inc.Add([]string{"explosion", "bridge", "north"})
	second := inc.Add([]string{"outage", "campus", "south"})
	if first == second {
		t.Fatal("distinct documents merged")
	}
	// A later batch's near-duplicate joins the original cluster.
	if got := inc.Add([]string{"explosion", "bridge", "north", "breaking"}); got != first {
		t.Fatalf("repeat assigned to %d, want %d", got, first)
	}
	if got := inc.Add([]string{"outage", "campus", "south"}); got != second {
		t.Fatalf("repeat assigned to %d, want %d", got, second)
	}
	if docs := inc.State().Docs; docs != 4 {
		t.Fatalf("docs = %d, want 4", docs)
	}
}

// TestIncrementalStateRoundTrip: snapshotting mid-stream and restoring
// (through JSON, as the ingest snapshot does) continues the stream with
// assignments identical to the uninterrupted run.
func TestIncrementalStateRoundTrip(t *testing.T) {
	docs := twittersimSmall(t)
	cut := len(docs) / 2

	full := (&Leader{}).Incremental()
	want := make([]int, len(docs))
	for d, doc := range docs {
		want[d] = full.Add(doc)
	}

	half := (&Leader{}).Incremental()
	for _, doc := range docs[:cut] {
		half.Add(doc)
	}
	data, err := json.Marshal(half.State())
	if err != nil {
		t.Fatal(err)
	}
	var st IncrementalState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreIncremental(&st)
	if err != nil {
		t.Fatal(err)
	}
	if docs := restored.State().Docs; docs != cut {
		t.Fatalf("restored docs = %d, want %d", docs, cut)
	}
	for d := cut; d < len(docs); d++ {
		if got := restored.Add(docs[d]); got != want[d] {
			t.Fatalf("doc %d after restore: cluster %d, want %d", d, got, want[d])
		}
	}
	if restored.NumClusters() != full.NumClusters() {
		t.Fatalf("clusters after restore = %d, want %d", restored.NumClusters(), full.NumClusters())
	}
}

// TestStateEncodesEmptyLeaderAsNull: State shares leader token slices
// instead of copying them, but an empty leader (a tweet of stopwords and
// mentions only) still encodes as null, so snapshots keep their bytes.
func TestStateEncodesEmptyLeaderAsNull(t *testing.T) {
	inc := (&Leader{}).Incremental()
	inc.Add(Tokenize("RT @user1: the"))
	data, err := json.Marshal(inc.State())
	if err != nil {
		t.Fatal(err)
	}
	if want := `"leaderTokens":[null]`; !strings.Contains(string(data), want) {
		t.Fatalf("State encodes as %s, want %s", data, want)
	}
}

// TestIncrementalStateRebuildsPostingsCap: the restored inverted index
// honors the postings cap exactly as the original run did, so hub tokens
// keep generating the same (capped) candidate sets after a restart.
func TestIncrementalStateRebuildsPostingsCap(t *testing.T) {
	l := &Leader{MaxPostings: 4}
	inc := l.Incremental()
	for d := 0; d < 50; d++ {
		inc.Add([]string{"hub", token("unique", d), token("extra", d)})
	}
	restored, err := RestoreIncremental(inc.State())
	if err != nil {
		t.Fatal(err)
	}
	probe := []string{"hub", "unique49", "extra49"}
	if got, want := restored.Add(probe), inc.Add(probe); got != want {
		t.Fatalf("restored Add = %d, original %d", got, want)
	}
	// Both continue identically on a fresh shared-token stream.
	for d := 0; d < 20; d++ {
		doc := []string{"hub", token("late", d)}
		if got, want := restored.Add(doc), inc.Add(doc); got != want {
			t.Fatalf("post-restore doc %d: %d vs %d", d, got, want)
		}
	}
}

func TestRestoreIncrementalRejectsBadState(t *testing.T) {
	// Each case is an honest state with one field broken.
	honestWith := func(f func(st *IncrementalState)) *IncrementalState {
		st := &IncrementalState{Threshold: 0.5, MaxPostings: 128, Docs: 5,
			Leaders: []int{0, 2, 3}, LeaderTokens: [][]string{{"a"}, {"b"}, {"c"}}}
		f(st)
		return st
	}
	if _, err := RestoreIncremental(honestWith(func(*IncrementalState) {})); err != nil {
		t.Fatalf("honest state refused: %v", err)
	}
	cases := map[string]*IncrementalState{
		"nil":                 nil,
		"missing token sets":  honestWith(func(st *IncrementalState) { st.LeaderTokens = nil }),
		"fewer docs":          honestWith(func(st *IncrementalState) { st.Docs = 2 }),
		"leader past docs":    honestWith(func(st *IncrementalState) { st.Leaders[2] = 5 }),
		"negative leader":     honestWith(func(st *IncrementalState) { st.Leaders[0] = -1 }),
		"first leader not 0":  honestWith(func(st *IncrementalState) { st.Leaders[0] = 1 }),
		"no leader for docs":  honestWith(func(st *IncrementalState) { st.Leaders, st.LeaderTokens = nil, nil }),
		"duplicated leader":   honestWith(func(st *IncrementalState) { st.Leaders[2] = 2 }),
		"out-of-order leader": honestWith(func(st *IncrementalState) { st.Leaders[1], st.Leaders[2] = 3, 2 }),
		"zero threshold":      honestWith(func(st *IncrementalState) { st.Threshold = 0 }),
		"NaN threshold":       honestWith(func(st *IncrementalState) { st.Threshold = math.NaN() }),
		"zero postings cap":   honestWith(func(st *IncrementalState) { st.MaxPostings = 0 }),
	}
	for name, st := range cases {
		if _, err := RestoreIncremental(st); err == nil {
			t.Errorf("%s: bad state accepted", name)
		}
	}
}

// FuzzRestoreIncremental: RestoreIncremental never panics on a decoded
// snapshot; a state it accepts round-trips through State unchanged, and
// clusters a probe stream exactly as the reference clusterer restored from
// the same state and as RestoreIncremental of its own State.
func FuzzRestoreIncremental(f *testing.F) {
	honest := (&Leader{MaxPostings: 2}).Incremental()
	for _, doc := range [][]string{{"a", "b"}, {"a", "b", "c"}, {"x"}, {}, {"a", "x", "y"}} {
		honest.Add(doc)
	}
	seed, err := json.Marshal(honest.State())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"threshold":0.3,"maxPostings":1,"docs":3,"leaders":[0,2],"leaderTokens":[["a","a"],[]]}`))
	f.Add([]byte(`{"threshold":0.5,"maxPostings":128,"docs":0,"leaders":[],"leaderTokens":[]}`))
	f.Add([]byte(`{"threshold":0.5,"maxPostings":128,"docs":4,"leaders":[0,2,2],"leaderTokens":[["a"],["b"],["c"]]}`))
	probe := [][]string{{"a", "b"}, {"a"}, {"x", "y", "a"}, {"b", "c"}, {}, {"a", "a", "b"}, {"z"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st IncrementalState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		inc, err := RestoreIncremental(&st)
		if err != nil {
			return
		}
		got := inc.State()
		if got.Threshold != st.Threshold || got.MaxPostings != st.MaxPostings || got.Docs != st.Docs ||
			!slices.Equal(got.Leaders, st.Leaders) ||
			!slices.EqualFunc(got.LeaderTokens, st.LeaderTokens, slices.Equal) {
			t.Fatalf("State() = %+v, restored from %+v", got, st)
		}
		again, err := RestoreIncremental(got)
		if err != nil {
			t.Fatalf("own State refused: %v", err)
		}
		ref := restoreReference(&st)
		for i, doc := range probe {
			c, want := inc.Add(doc), ref.add(doc)
			if c != want {
				t.Fatalf("probe %d: cluster %d, reference %d", i, c, want)
			}
			if c2 := again.Add(doc); c2 != c {
				t.Fatalf("probe %d: cluster %d, restored from own State %d", i, c, c2)
			}
		}
	})
}

// TestIncrementalMatchesBatchOnLargeStream exercises the equivalence on a
// generated stream with a second seed and a non-default configuration.
func TestIncrementalMatchesBatchOnLargeStream(t *testing.T) {
	sc := twittersim.Small("Kirkuk", 30)
	w, err := twittersim.Generate(sc, randutil.New(11))
	if err != nil {
		t.Fatal(err)
	}
	docs := make([][]string, len(w.Tweets))
	for i, tw := range w.Tweets {
		docs[i] = Tokenize(tw.Text)
	}
	l := &Leader{Threshold: 0.4, MaxPostings: 16}
	batch := l.Cluster(docs)
	inc := l.Incremental()
	for d, doc := range docs {
		if got := inc.Add(doc); got != batch.Cluster[d] {
			t.Fatalf("doc %d: incremental %d, batch %d", d, got, batch.Cluster[d])
		}
	}
}

func token(stem string, d int) string {
	return stem + string(rune('0'+d/10)) + string(rune('0'+d%10))
}
