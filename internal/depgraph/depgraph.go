// Package depgraph models the influence structure among sources: who can see
// (and hence repeat) whose claims. A directed edge i -> k means source i
// follows source k, so k is an ancestor of i in the paper's terminology and
// claims by k can render later identical claims by i dependent.
//
// The package also derives the dependency indicator matrix D from a
// timestamped claim log (Section II-A, Figure 1): a claim S_iC_j is
// dependent iff some ancestor of S_i asserted C_j strictly earlier, and a
// silent pair (i, j) is dependent iff some ancestor of S_i asserted C_j at
// any time.
package depgraph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"depsense/internal/claims"
	"depsense/internal/model"
)

// Graph is a directed follower graph over n sources. Edges(i) lists the
// ancestors of i (the sources i follows).
type Graph struct {
	n         int
	ancestors [][]int
}

// ErrBadSource is returned when an edge references a source out of range.
var ErrBadSource = errors.New("depgraph: source index out of range")

// NewGraph creates an empty graph over n sources.
func NewGraph(n int) *Graph {
	return &Graph{n: n, ancestors: make([][]int, n)}
}

// N returns the number of sources.
func (g *Graph) N() int { return g.n }

// Grow extends the graph to n sources; the new sources have no edges and
// existing ancestor lists keep their order. A smaller n is a no-op.
func (g *Graph) Grow(n int) {
	if n > g.n {
		g.ancestors = append(g.ancestors, make([][]int, n-g.n)...)
		g.n = n
	}
}

// AddFollow records that follower follows followee (followee becomes an
// ancestor of follower). Self-follows and duplicates are ignored.
func (g *Graph) AddFollow(follower, followee int) error {
	if follower < 0 || follower >= g.n || followee < 0 || followee >= g.n {
		return fmt.Errorf("%w: follow(%d -> %d) with n=%d", ErrBadSource, follower, followee, g.n)
	}
	if follower == followee {
		return nil
	}
	for _, a := range g.ancestors[follower] {
		if a == followee {
			return nil
		}
	}
	g.ancestors[follower] = append(g.ancestors[follower], followee)
	return nil
}

// Ancestors returns the sources that source i follows. The slice is owned by
// the graph and must not be modified.
func (g *Graph) Ancestors(i int) []int { return g.ancestors[i] }

// NumEdges returns the total number of follow edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.ancestors {
		total += len(a)
	}
	return total
}

// Event is one timestamped claim: source asserted assertion at time t.
// Times are opaque monotone integers (e.g. Unix seconds or sequence
// numbers); only their order matters.
type Event struct {
	Source    int   `json:"source"`
	Assertion int   `json:"assertion"`
	Time      int64 `json:"time"`
}

// BuildDataset derives the source-claim matrix and the full dependency
// indicator matrix from a claim log and the follow graph, producing the
// estimator input of Section II:
//
//   - SC[i][j] = 1 iff the log contains an event (i, j, ·); duplicates
//     collapse to the earliest occurrence.
//   - For a claimed pair, D[i][j] = 1 iff an ancestor of i asserted j
//     strictly before i's earliest claim of j.
//   - For a silent pair, D[i][j] = 1 iff an ancestor of i asserted j at any
//     time. Only silent pairs reachable through at least one edge are
//     materialized (the matrix stays sparse).
//
// m is the total number of assertions (assertion ids must lie in [0, m)).
//
// The derivation uses flat arrays, no maps: a counting sort groups the
// events by source, each source's row keeps its earliest time per assertion
// in assertion order, claims binary-search their ancestors' rows, and silent
// pairs come from walking those rows. It runs in O(E + nnz + n + m), where E
// counts the events and follow edges and nnz the pairs of SC and D, plus a
// sort of each source's events and silent pairs and a binary search per
// (claim, ancestor) pair.
func BuildDataset(g *Graph, events []Event, m int) (*claims.Dataset, error) {
	n := g.n
	for _, e := range events {
		if e.Source < 0 || e.Source >= n {
			return nil, fmt.Errorf("%w: event source %d with n=%d", ErrBadSource, e.Source, n)
		}
		if e.Assertion < 0 || e.Assertion >= m {
			return nil, fmt.Errorf("depgraph: event assertion %d out of range m=%d", e.Assertion, m)
		}
	}

	// Counting sort by source: source i's events land in
	// stamps[start[i]:start[i+1]].
	start := make([]int, n+1)
	for _, e := range events {
		start[e.Source+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	stamps := make([]stamp, len(events))
	next := make([]int, n)
	copy(next, start[:n])
	for _, e := range events {
		stamps[next[e.Source]] = stamp{int32(e.Assertion), e.Time}
		next[e.Source]++
	}
	// Sort each source's stamps by (assertion, time) and keep the first
	// per assertion, its earliest claim.
	rows := make([][]stamp, n)
	for i := range rows {
		r := stamps[start[i]:start[i+1]]
		slices.SortFunc(r, func(a, b stamp) int {
			if c := cmp.Compare(a.j, b.j); c != 0 {
				return c
			}
			return cmp.Compare(a.t, b.t)
		})
		kept := 0
		for k, s := range r {
			if k == 0 || s.j != r[kept-1].j {
				r[kept] = s
				kept++
			}
		}
		rows[i] = r[:kept]
	}

	d0, d1, s1 := newRows(n, m), newRows(n, m), newRows(n, m)
	// mark[j] == i+1 once source i claimed or was found silent on j.
	mark := make([]int32, m)
	for i := 0; i < n; i++ {
		epoch := int32(i + 1)
		for _, s := range rows[i] {
			mark[s.j] = epoch
			row := d0
			if dependent(rows, g.ancestors[i], s) {
				row = d1
			}
			row.Col = append(row.Col, s.j)
		}
		silentFrom := len(s1.Col)
		for _, anc := range g.ancestors[i] {
			for _, s := range rows[anc] {
				if mark[s.j] != epoch {
					mark[s.j] = epoch
					s1.Col = append(s1.Col, s.j)
				}
			}
		}
		slices.Sort(s1.Col[silentFrom:])
		d0.RowPtr[i+1] = int32(len(d0.Col))
		d1.RowPtr[i+1] = int32(len(d1.Col))
		s1.RowPtr[i+1] = int32(len(s1.Col))
	}
	return claims.FromRows(d0, d1, s1)
}

// stamp is one source's claim of assertion j at time t.
type stamp struct {
	j int32
	t int64
}

// dependent reports whether some ancestor's row holds claim s's assertion
// strictly earlier than s: the paper's rule for a dependent claim.
func dependent(rows [][]stamp, ancestors []int, s stamp) bool {
	for _, anc := range ancestors {
		r := rows[anc]
		k, found := slices.BinarySearchFunc(r, s.j, func(a stamp, j int32) int { return cmp.Compare(a.j, j) })
		if found && r[k].t < s.t {
			return true
		}
	}
	return false
}

func newRows(n, m int) *model.CSR {
	return &model.CSR{NumRows: n, NumCols: m, RowPtr: make([]int32, n+1), Col: []int32{}}
}

// Forest builds the paper's synthetic dependency structure (Section V-A): a
// forest of tau level-two trees over n sources. The first tau sources are
// roots; every remaining source follows exactly one root, assigned
// round-robin so trees are balanced. Roots are independent; leaves are
// dependent on their root. It returns the graph plus the root flag vector.
func Forest(n, tau int) (*Graph, []bool, error) {
	g, parent, err := ForestWithDepth(n, tau, 2)
	if err != nil {
		return nil, nil, err
	}
	isRoot := make([]bool, n)
	for i, p := range parent {
		isRoot[i] = p < 0
	}
	return g, isRoot, nil
}

// ForestWithDepth generalizes Forest to trees of the given maximum depth
// (depth 2 is the paper's structure; larger depths model retweets of
// retweets). The first tau sources are roots; each remaining source is
// attached round-robin to the earliest source whose subtree still has room
// above the depth limit, keeping trees balanced level by level. It returns
// the graph plus each source's parent (-1 for roots).
func ForestWithDepth(n, tau, depth int) (*Graph, []int, error) {
	if tau < 1 || tau > n {
		return nil, nil, fmt.Errorf("depgraph: forest needs 1 <= tau <= n, got tau=%d n=%d", tau, n)
	}
	if depth < 2 {
		return nil, nil, fmt.Errorf("depgraph: forest depth must be >= 2, got %d", depth)
	}
	g := NewGraph(n)
	parent := make([]int, n)
	level := make([]int, n)
	for i := 0; i < tau; i++ {
		parent[i] = -1
		level[i] = 1
	}
	// Fill level by level: level-2 children of the roots first, then
	// level-3 children of level-2 sources, and so on; overflow past the
	// depth limit re-enters at level 2.
	levelStart := 0 // first source of the parents' level
	levelEnd := tau // one past the last source of the parents' level
	next := tau
	for next < n {
		parentsAvailable := levelEnd - levelStart
		if parentsAvailable == 0 || level[levelStart] >= depth {
			// Deepest level reached: wrap back to attaching under roots.
			levelStart, levelEnd = 0, tau
			parentsAvailable = tau
		}
		fill := n - next
		if fill > parentsAvailable {
			fill = parentsAvailable
		}
		newStart := next
		for k := 0; k < fill; k++ {
			p := levelStart + k
			parent[next] = p
			level[next] = level[p] + 1
			if err := g.AddFollow(next, p); err != nil {
				return nil, nil, err
			}
			next++
		}
		levelStart, levelEnd = newStart, next
	}
	return g, parent, nil
}
