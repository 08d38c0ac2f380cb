package cluster

import "fmt"

// Incremental is the stateful form of Leader: documents arrive one at a
// time via Add, cluster ids are stable across calls (and hence across
// batches — cluster c keeps meaning the same assertion forever), and the
// whole state round-trips through State/RestoreIncremental so a long-lived
// ingestion service can snapshot its assertion extraction and restart warm.
//
// Leader.Cluster is reimplemented on top of this type, so the batch path
// and the incremental path are the same algorithm by construction: feeding
// a document stream through Add in order yields exactly the assignment
// Cluster would have produced on the concatenated slice.
type Incremental struct {
	threshold   float64
	maxPostings int

	// index is the inverted token index: token -> cluster ids whose leader
	// contains it, in cluster-creation order, capped at maxPostings.
	index        map[string][]int
	leaderTokens [][]string
	leaders      []int
	docs         int

	// counts[c] is the scratch count of tokens a document shares with
	// cluster c, one slot per cluster. bestCluster zeroes every slot it
	// touches, so it is all zero between calls.
	counts []int
	cands  []int // scratch: candidate ids in first-seen order
}

// Incremental returns a fresh incremental clusterer with the Leader's
// threshold and postings cap (defaults applied as in Cluster).
func (l *Leader) Incremental() *Incremental {
	threshold := l.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	maxPostings := l.MaxPostings
	if maxPostings <= 0 {
		maxPostings = 128
	}
	return &Incremental{
		threshold:   threshold,
		maxPostings: maxPostings,
		index:       make(map[string][]int),
		cands:       make([]int, 0, 64),
	}
}

// NumClusters returns the number of clusters created so far.
func (inc *Incremental) NumClusters() int { return len(inc.leaderTokens) }

// Leaders returns a copy of the founding document id per cluster.
func (inc *Incremental) Leaders() []int {
	return append([]int(nil), inc.leaders...)
}

// Add assigns the document to a cluster, founding a new one when no
// existing cluster is at least threshold-similar, and returns its id. Add
// takes ownership of doc: a founding document becomes its cluster's leader
// token set, which State shares, so the caller must not modify it after.
func (inc *Incremental) Add(doc []string) int {
	best := inc.bestCluster(doc)
	if best < 0 {
		best = len(inc.leaderTokens)
		inc.leaders = append(inc.leaders, inc.docs)
		inc.leaderTokens = append(inc.leaderTokens, doc)
		inc.counts = append(inc.counts, 0)
		for _, tok := range doc {
			if len(inc.index[tok]) < inc.maxPostings {
				inc.index[tok] = append(inc.index[tok], best)
			}
		}
	}
	inc.docs++
	return best
}

// bestCluster scans the inverted index for the most similar existing
// cluster above the threshold, ties broken toward the lowest cluster id.
// Candidates are scored in first-seen order, so the tie rule is explicit
// rather than the effect of a sorted scan.
func (inc *Incremental) bestCluster(doc []string) int {
	counts, cands := inc.counts, inc.cands[:0]
	for _, tok := range doc {
		for _, c := range inc.index[tok] {
			if counts[c] == 0 {
				cands = append(cands, c)
			}
			counts[c]++
		}
	}
	best, bestSim := -1, inc.threshold
	for _, c := range cands {
		shared := counts[c]
		counts[c] = 0
		// Jaccard from intersection size and set sizes.
		union := len(doc) + len(inc.leaderTokens[c]) - shared
		if union == 0 {
			continue
		}
		sim := float64(shared) / float64(union)
		if sim > bestSim || (sim == bestSim && best >= 0 && c < best) {
			best, bestSim = c, sim
		}
	}
	inc.cands = cands
	return best
}

// IncrementalState is the serializable snapshot of an Incremental. The
// inverted index is not stored: it is a deterministic function of the
// leader token sets (postings are appended in cluster-creation order, then
// per-leader token order, capped at MaxPostings), so RestoreIncremental
// rebuilds it exactly.
type IncrementalState struct {
	Threshold    float64    `json:"threshold"`
	MaxPostings  int        `json:"maxPostings"`
	Docs         int        `json:"docs"`
	Leaders      []int      `json:"leaders"`
	LeaderTokens [][]string `json:"leaderTokens"`
}

// State captures the clusterer's current state for persistence. It copies
// the outer slices but shares each leader's token set, which is never
// modified after Add: the state stays valid while the clusterer runs on.
func (inc *Incremental) State() *IncrementalState {
	tokens := make([][]string, len(inc.leaderTokens))
	for c, toks := range inc.leaderTokens {
		if len(toks) > 0 { // an empty set stays nil, encoded as null
			tokens[c] = toks
		}
	}
	return &IncrementalState{
		Threshold:    inc.threshold,
		MaxPostings:  inc.maxPostings,
		Docs:         inc.docs,
		Leaders:      append([]int(nil), inc.leaders...),
		LeaderTokens: tokens,
	}
}

// RestoreIncremental rebuilds an Incremental from a persisted state,
// including the inverted index, so continuing the stream after a restart
// produces exactly the assignments an uninterrupted run would have. It
// refuses a state no run can produce: each founder is the next document,
// so leaders start at document 0 and strictly increase below Docs.
func RestoreIncremental(st *IncrementalState) (*Incremental, error) {
	if st == nil {
		return nil, fmt.Errorf("cluster: nil incremental state")
	}
	if !(st.Threshold > 0) || st.MaxPostings <= 0 {
		return nil, fmt.Errorf("cluster: state has threshold %v and postings cap %d, want both positive",
			st.Threshold, st.MaxPostings)
	}
	if len(st.Leaders) != len(st.LeaderTokens) {
		return nil, fmt.Errorf("cluster: state has %d leaders but %d token sets",
			len(st.Leaders), len(st.LeaderTokens))
	}
	if st.Docs < len(st.Leaders) {
		return nil, fmt.Errorf("cluster: state has %d docs but %d clusters", st.Docs, len(st.Leaders))
	}
	if st.Docs > 0 && (len(st.Leaders) == 0 || st.Leaders[0] != 0) {
		return nil, fmt.Errorf("cluster: state has %d docs but doc 0 founds no cluster", st.Docs)
	}
	for c := 1; c < len(st.Leaders); c++ {
		if st.Leaders[c] <= st.Leaders[c-1] || st.Leaders[c] >= st.Docs {
			return nil, fmt.Errorf("cluster: leader doc %d of cluster %d not in (%d,%d)",
				st.Leaders[c], c, st.Leaders[c-1], st.Docs)
		}
	}
	l := &Leader{Threshold: st.Threshold, MaxPostings: st.MaxPostings}
	inc := l.Incremental()
	inc.docs = st.Docs
	inc.leaders = append([]int(nil), st.Leaders...)
	inc.leaderTokens = make([][]string, len(st.LeaderTokens))
	inc.counts = make([]int, len(st.Leaders))
	for c, toks := range st.LeaderTokens {
		inc.leaderTokens[c] = append([]string(nil), toks...)
		for _, tok := range inc.leaderTokens[c] {
			if len(inc.index[tok]) < inc.maxPostings {
				inc.index[tok] = append(inc.index[tok], c)
			}
		}
	}
	return inc, nil
}
