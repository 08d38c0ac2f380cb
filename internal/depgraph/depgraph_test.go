package depgraph

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"depsense/internal/claims"
)

func TestAddFollow(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddFollow(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddFollow(0, 1); err != nil { // duplicate
		t.Fatal(err)
	}
	if err := g.AddFollow(1, 1); err != nil { // self-follow ignored
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if err := g.AddFollow(0, 3); !errors.Is(err, ErrBadSource) {
		t.Fatalf("want ErrBadSource, got %v", err)
	}
	if err := g.AddFollow(-1, 0); !errors.Is(err, ErrBadSource) {
		t.Fatalf("want ErrBadSource, got %v", err)
	}
}

func TestGrowKeepsAncestors(t *testing.T) {
	g := NewGraph(3)
	for _, e := range [][2]int{{2, 1}, {2, 0}, {0, 1}} {
		if err := g.AddFollow(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g.Grow(2) // shrinking is a no-op
	g.Grow(5)
	if g.N() != 5 || g.NumEdges() != 3 {
		t.Fatalf("after Grow(5): n=%d edges=%d", g.N(), g.NumEdges())
	}
	if got := g.Ancestors(2); !slices.Equal(got, []int{1, 0}) {
		t.Fatalf("Ancestors(2) = %v, want [1 0] in insertion order", got)
	}
	if len(g.Ancestors(3)) != 0 || len(g.Ancestors(4)) != 0 {
		t.Fatal("grown sources have ancestors")
	}
	if err := g.AddFollow(4, 2); err != nil {
		t.Fatal(err)
	}
	if got := g.Ancestors(4); !slices.Equal(got, []int{2}) {
		t.Fatalf("Ancestors(4) = %v", got)
	}
}

// TestFigureOneExample reproduces the running example of Section II-A:
// John (S1) follows Sally (S2) but not Heather (S3). Sally tweets C1 at t1,
// Heather tweets C2 at t1, John tweets C1 at t2 and C2 at t3. Only John's
// repeat of Sally's assertion is dependent.
func TestFigureOneExample(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddFollow(0, 1); err != nil { // John follows Sally
		t.Fatal(err)
	}
	events := []Event{
		{Source: 1, Assertion: 0, Time: 1}, // Sally: Main St congested
		{Source: 2, Assertion: 1, Time: 1}, // Heather: University Ave congested
		{Source: 0, Assertion: 0, Time: 2}, // John repeats Sally
		{Source: 0, Assertion: 1, Time: 3}, // John independently matches Heather
	}
	ds, err := BuildDataset(g, events, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Claimed(0, 0) || !ds.Claimed(0, 1) || !ds.Claimed(1, 0) || !ds.Claimed(2, 1) {
		t.Fatal("claims missing")
	}
	if !ds.Dependent(0, 0) {
		t.Error("D[1,1] should be 1 (John repeated Sally)")
	}
	if ds.Dependent(0, 1) {
		t.Error("D[1,2] should be 0 (John does not follow Heather)")
	}
	if ds.Dependent(1, 0) || ds.Dependent(2, 1) {
		t.Error("Sally's and Heather's tweets are independent")
	}
	if ds.NumDependentClaims() != 1 || ds.NumClaims() != 4 {
		t.Fatalf("summary: %+v", ds.Summarize())
	}
}

func TestSimultaneousClaimsAreIndependent(t *testing.T) {
	g := NewGraph(2)
	_ = g.AddFollow(1, 0)
	events := []Event{
		{Source: 0, Assertion: 0, Time: 5},
		{Source: 1, Assertion: 0, Time: 5}, // same instant: not "before"
	}
	ds, err := BuildDataset(g, events, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dependent(1, 0) {
		t.Fatal("simultaneous claim must not be dependent")
	}
}

func TestDuplicateEventsCollapseToEarliest(t *testing.T) {
	g := NewGraph(2)
	_ = g.AddFollow(1, 0)
	events := []Event{
		{Source: 1, Assertion: 0, Time: 1}, // follower first...
		{Source: 0, Assertion: 0, Time: 2},
		{Source: 1, Assertion: 0, Time: 3}, // ...then repeats after ancestor
	}
	ds, err := BuildDataset(g, events, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Earliest claim (t=1) precedes the ancestor's (t=2): independent.
	if ds.Dependent(1, 0) {
		t.Fatal("earliest-claim semantics violated")
	}
	if ds.NumClaims() != 2 {
		t.Fatalf("claims = %d, want 2", ds.NumClaims())
	}
}

func TestSilentDependentPairs(t *testing.T) {
	g := NewGraph(3)
	_ = g.AddFollow(1, 0)
	_ = g.AddFollow(2, 0)
	events := []Event{
		{Source: 0, Assertion: 0, Time: 1},
		{Source: 1, Assertion: 0, Time: 2},
	}
	ds, err := BuildDataset(g, events, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Source 2 follows 0, saw assertion 0, stayed silent.
	if got := ds.SilentDependents(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("SilentDependents(0) = %v", got)
	}
	// Nobody claimed assertion 1 at all.
	if len(ds.SilentDependents(1)) != 0 {
		t.Fatal("assertion 1 has spurious silent dependents")
	}
}

func TestBuildDatasetValidation(t *testing.T) {
	g := NewGraph(1)
	if _, err := BuildDataset(g, []Event{{Source: 1, Assertion: 0, Time: 1}}, 1); !errors.Is(err, ErrBadSource) {
		t.Fatalf("want ErrBadSource, got %v", err)
	}
	if _, err := BuildDataset(g, []Event{{Source: 0, Assertion: 2, Time: 1}}, 1); err == nil {
		t.Fatal("out-of-range assertion accepted")
	}
}

func TestForestShape(t *testing.T) {
	err := quick.Check(func(nRaw, tauRaw uint8) bool {
		n := int(nRaw%40) + 1
		tau := int(tauRaw%uint8(n)) + 1
		g, isRoot, err := Forest(n, tau)
		if err != nil {
			return false
		}
		roots := 0
		for i := 0; i < n; i++ {
			anc := g.Ancestors(i)
			if isRoot[i] {
				roots++
				if len(anc) != 0 {
					return false
				}
			} else {
				// Level-two: exactly one ancestor, which is a root.
				if len(anc) != 1 || !isRoot[anc[0]] {
					return false
				}
			}
		}
		return roots == tau && g.NumEdges() == n-tau
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForestBalance(t *testing.T) {
	g, _, err := Forest(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for i := 3; i < 10; i++ {
		counts[g.Ancestors(i)[0]]++
	}
	for _, c := range counts {
		if c < 2 || c > 3 {
			t.Fatalf("unbalanced forest: %v", counts)
		}
	}
}

func TestForestValidation(t *testing.T) {
	if _, _, err := Forest(5, 0); err == nil {
		t.Fatal("tau=0 accepted")
	}
	if _, _, err := Forest(5, 6); err == nil {
		t.Fatal("tau>n accepted")
	}
}

func TestForestWithDepthShape(t *testing.T) {
	err := quick.Check(func(nRaw, tauRaw, depthRaw uint8) bool {
		n := int(nRaw%60) + 1
		tau := int(tauRaw%uint8(n)) + 1
		depth := 2 + int(depthRaw%4)
		g, parent, err := ForestWithDepth(n, tau, depth)
		if err != nil {
			return false
		}
		if len(parent) != n || g.NumEdges() != n-tau {
			return false
		}
		level := make([]int, n)
		roots := 0
		for i := 0; i < n; i++ {
			p := parent[i]
			if p < 0 {
				roots++
				level[i] = 1
				if len(g.Ancestors(i)) != 0 {
					return false
				}
				continue
			}
			// Parents precede children (topological id order) and carry
			// the single follow edge.
			if p >= i {
				return false
			}
			anc := g.Ancestors(i)
			if len(anc) != 1 || anc[0] != p {
				return false
			}
			level[i] = level[p] + 1
			if level[i] > depth {
				return false
			}
		}
		return roots == tau
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForestWithDepthReachesDepth(t *testing.T) {
	_, parent, err := ForestWithDepth(30, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	level := make([]int, 30)
	deepest := 0
	for i, p := range parent {
		if p < 0 {
			level[i] = 1
		} else {
			level[i] = level[p] + 1
		}
		if level[i] > deepest {
			deepest = level[i]
		}
	}
	if deepest != 4 {
		t.Fatalf("deepest level = %d, want 4", deepest)
	}
}

func TestForestWithDepthValidation(t *testing.T) {
	if _, _, err := ForestWithDepth(5, 2, 1); err == nil {
		t.Fatal("depth 1 accepted")
	}
	if _, _, err := ForestWithDepth(5, 0, 2); err == nil {
		t.Fatal("tau 0 accepted")
	}
}

// TestBuildDatasetStableAcrossRuns is the regression test for the
// map-iteration fix in BuildDataset: repeated builds from the same graph
// and event log must JSON-encode to byte-identical datasets. Before the
// fix, per-source claim maps were iterated in map order, so the builder's
// call sequence (and any error it picked) varied run to run.
func TestBuildDatasetStableAcrossRuns(t *testing.T) {
	g := NewGraph(6)
	for _, e := range [][2]int{{1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 2}} {
		if err := g.AddFollow(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	events := []Event{
		{Source: 0, Assertion: 0, Time: 1},
		{Source: 0, Assertion: 1, Time: 2},
		{Source: 0, Assertion: 2, Time: 3},
		{Source: 1, Assertion: 0, Time: 5},
		{Source: 1, Assertion: 3, Time: 6},
		{Source: 2, Assertion: 1, Time: 7},
		{Source: 3, Assertion: 0, Time: 8},
		{Source: 3, Assertion: 3, Time: 9},
		{Source: 4, Assertion: 2, Time: 10},
		{Source: 5, Assertion: 1, Time: 11},
	}
	encode := func() []byte {
		ds, err := BuildDataset(g, events, 4)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := encode()
	for run := 0; run < 30; run++ {
		if got := encode(); !bytes.Equal(got, first) {
			t.Fatalf("run %d: dataset encoding differs from first run", run)
		}
	}
}

// referenceDataset derives the dataset straight from the Section II-A
// definitions with dense n×m loops: SC[i][j] = 1 iff i asserted j; a claim
// is dependent iff an ancestor's earliest assertion of j is strictly earlier
// than i's earliest; a silent pair is dependent iff an ancestor asserted j
// at all. A source is never its own ancestor. Events must be in range.
func referenceDataset(t *testing.T, g *Graph, events []Event, m int) *claims.Dataset {
	t.Helper()
	n := g.N()
	asserted := make([][]bool, n)
	earliest := make([][]int64, n)
	for i := range asserted {
		asserted[i] = make([]bool, m)
		earliest[i] = make([]int64, m)
	}
	for _, e := range events {
		if !asserted[e.Source][e.Assertion] || e.Time < earliest[e.Source][e.Assertion] {
			asserted[e.Source][e.Assertion] = true
			earliest[e.Source][e.Assertion] = e.Time
		}
	}
	b := claims.NewBuilder(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			seen, earlier := false, false
			for _, anc := range g.Ancestors(i) {
				if anc == i || !asserted[anc][j] {
					continue
				}
				seen = true
				earlier = earlier || earliest[anc][j] < earliest[i][j]
			}
			switch {
			case asserted[i][j]:
				b.AddClaim(i, j, earlier)
			case seen:
				b.MarkSilentDependent(i, j)
			}
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	return ds
}

// assertSameDataset compares two datasets through the JSON encoding, the
// sparse view every accessor reads, and the summary.
func assertSameDataset(t *testing.T, got, want *claims.Dataset) {
	t.Helper()
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("encoding\n%s\nwant\n%s", gj, wj)
	}
	gs, ws := got.Sparse(), want.Sparse()
	if !gs.Claims.Equal(ws.Claims) || !slices.Equal(gs.ClaimDep, ws.ClaimDep) || !gs.Silent.Equal(ws.Silent) ||
		!gs.ClaimsD0.Equal(ws.ClaimsD0) || !gs.ClaimsD1.Equal(ws.ClaimsD1) || !gs.SilentD1.Equal(ws.SilentD1) {
		t.Fatalf("sparse views differ:\n%+v\nwant\n%+v", gs, ws)
	}
	if got.Summarize() != want.Summarize() {
		t.Fatalf("summary %+v, want %+v", got.Summarize(), want.Summarize())
	}
}

// TestBuildDatasetMatchesReference pins BuildDataset on the edge cases of
// the D derivation, both by its exact encoding and against the dense
// reference.
func TestBuildDatasetMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		n, m    int
		follows [][2]int
		events  []Event
		want    string // JSON encoding
	}{
		{
			name: "duplicate claim whose earliest copy arrives last",
			n:    2, m: 1, follows: [][2]int{{1, 0}},
			events: []Event{{1, 0, 9}, {0, 0, 5}, {1, 0, 7}, {1, 0, 3}},
			want:   `{"sources":2,"assertions":1,"claims":[{"source":0,"assertion":0},{"source":1,"assertion":0}]}`,
		},
		{
			name: "ancestor with an equal timestamp leaves the claim independent",
			n:    3, m: 1, follows: [][2]int{{1, 0}, {2, 1}},
			events: []Event{{0, 0, 5}, {1, 0, 5}, {2, 0, 6}},
			want: `{"sources":3,"assertions":1,"claims":[{"source":0,"assertion":0},{"source":1,"assertion":0},` +
				`{"source":2,"assertion":0,"dependent":true}]}`,
		},
		{
			name: "ancestor that claimed later: independent claim, not silent",
			n:    2, m: 2, follows: [][2]int{{1, 0}},
			events: []Event{{1, 0, 1}, {0, 0, 2}, {0, 1, 3}},
			want: `{"sources":2,"assertions":2,"claims":[{"source":0,"assertion":0},{"source":1,"assertion":0},` +
				`{"source":0,"assertion":1}],"silentDependent":[{"source":1,"assertion":1}]}`,
		},
		{
			name: "self-follow is no dependency",
			n:    1, m: 2, follows: [][2]int{{0, 0}},
			events: []Event{{0, 0, 1}, {0, 0, 2}},
			want:   `{"sources":1,"assertions":2,"claims":[{"source":0,"assertion":0}]}`,
		},
		{
			name: "sources and assertions with no events",
			n:    6, m: 5, follows: [][2]int{{3, 1}, {3, 4}, {5, 3}, {2, 0}},
			events: []Event{{4, 3, 2}, {1, 1, 1}, {3, 1, 4}},
			want: `{"sources":6,"assertions":5,"claims":[{"source":1,"assertion":1},{"source":3,"assertion":1,"dependent":true},` +
				`{"source":4,"assertion":3}],"silentDependent":[{"source":5,"assertion":1},{"source":3,"assertion":3}]}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph(tc.n)
			for _, f := range tc.follows {
				if err := g.AddFollow(f[0], f[1]); err != nil {
					t.Fatal(err)
				}
			}
			ds, err := BuildDataset(g, tc.events, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(ds)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Fatalf("encoding\n%s\nwant\n%s", got, tc.want)
			}
			assertSameDataset(t, ds, referenceDataset(t, g, tc.events, tc.m))
		})
	}
}

// TestBuildDatasetEventErrors pins the validation messages: the first bad
// event in log order is reported, its source checked before its assertion.
func TestBuildDatasetEventErrors(t *testing.T) {
	g := NewGraph(2)
	cases := []struct {
		events []Event
		want   string
	}{
		{[]Event{{0, 0, 1}, {2, 0, 2}}, "depgraph: source index out of range: event source 2 with n=2"},
		{[]Event{{-1, 0, 1}}, "depgraph: source index out of range: event source -1 with n=2"},
		{[]Event{{1, 3, 1}, {5, 0, 2}}, "depgraph: event assertion 3 out of range m=3"},
		{[]Event{{1, -1, 1}}, "depgraph: event assertion -1 out of range m=3"},
		{[]Event{{7, 9, 1}}, "depgraph: source index out of range: event source 7 with n=2"},
	}
	for _, tc := range cases {
		ds, err := BuildDataset(g, tc.events, 3)
		if err == nil || err.Error() != tc.want || ds != nil {
			t.Errorf("BuildDataset(%v) = %v, %v; want error %q", tc.events, ds, err, tc.want)
		}
	}
}

// FuzzBuildDataset decodes bytes into a small follow graph and claim log
// and checks BuildDataset against the dense reference. Times take few
// values so that ties and duplicate claims are common; an out-of-range
// event must yield an error.
func FuzzBuildDataset(f *testing.F) {
	f.Add([]byte{3, 2, 2, 1, 0, 2, 1, 0, 0, 1, 1, 0, 2, 2, 1, 3})
	f.Add([]byte{5, 4, 4, 1, 0, 2, 0, 3, 3, 4, 2, 0, 0, 5, 1, 0, 5, 2, 1, 0, 3, 3, 2, 4, 1, 1})
	f.Add([]byte{1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{2, 2, 0, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, m, edges := 1+int(data[0]%8), 1+int(data[1]%8), int(data[2]%16)
		data = data[3:]
		g := NewGraph(n)
		for ; edges > 0 && len(data) >= 2; edges-- {
			if err := g.AddFollow(int(data[0])%n, int(data[1])%n); err != nil {
				t.Fatal(err)
			}
			data = data[2:]
		}
		var events []Event
		valid := true
		for ; len(data) >= 3; data = data[3:] {
			// One value past each range makes a rare out-of-range event.
			e := Event{Source: int(data[0]) % (n + 1), Assertion: int(data[1]) % (m + 1), Time: int64(data[2] % 8)}
			valid = valid && e.Source < n && e.Assertion < m
			events = append(events, e)
		}
		ds, err := BuildDataset(g, events, m)
		if !valid {
			if err == nil {
				t.Fatal("out-of-range event accepted")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		assertSameDataset(t, ds, referenceDataset(t, g, events, m))
	})
}
