package cluster

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

// referenceTokenize is Tokenize as it was before the map-free rewrite: a
// per-call seen map and strings.Trim over the multibyte cutset. It is the
// oracle for FuzzTokenize and TestClusterMatchesReference.
func referenceTokenize(text string) []string {
	fields := strings.Fields(strings.ToLower(text))
	seen := make(map[string]struct{}, len(fields))
	tokens := make([]string, 0, len(fields))
	for _, f := range fields {
		f = strings.Trim(f, ".,!?;:'\"()[]{}…—-")
		switch {
		case f == "" || f == "rt":
			continue
		case strings.HasPrefix(f, "@"):
			continue
		case strings.HasPrefix(f, "http://") || strings.HasPrefix(f, "https://"):
			continue
		case stopwords[f]:
			continue
		}
		if _, dup := seen[f]; dup {
			continue
		}
		seen[f] = struct{}{}
		tokens = append(tokens, f)
	}
	return tokens
}

// referenceIncremental is the incremental leader clusterer as it was before
// the dense-count rewrite: candidate counts in a map cleared per document,
// and candidates scanned in sorted id order so a Jaccard tie goes to the
// first (lowest) id reaching the best similarity.
type referenceIncremental struct {
	threshold    float64
	maxPostings  int
	index        map[string][]int
	leaderTokens [][]string
	leaders      []int
	docs         int
	counts       map[int]int
	cands        []int
}

func newReferenceIncremental(l *Leader) *referenceIncremental {
	threshold := l.Threshold
	if threshold <= 0 {
		threshold = 0.5
	}
	maxPostings := l.MaxPostings
	if maxPostings <= 0 {
		maxPostings = 128
	}
	return &referenceIncremental{
		threshold:   threshold,
		maxPostings: maxPostings,
		index:       make(map[string][]int),
		counts:      make(map[int]int),
	}
}

// restoreReference rebuilds the reference clusterer from a state that
// RestoreIncremental accepted.
func restoreReference(st *IncrementalState) *referenceIncremental {
	ref := newReferenceIncremental(&Leader{Threshold: st.Threshold, MaxPostings: st.MaxPostings})
	ref.docs = st.Docs
	ref.leaders = append([]int(nil), st.Leaders...)
	for c, toks := range st.LeaderTokens {
		ref.leaderTokens = append(ref.leaderTokens, append([]string(nil), toks...))
		for _, tok := range toks {
			if len(ref.index[tok]) < ref.maxPostings {
				ref.index[tok] = append(ref.index[tok], c)
			}
		}
	}
	return ref
}

func (ref *referenceIncremental) add(doc []string) int {
	best := ref.bestCluster(doc)
	if best < 0 {
		best = len(ref.leaderTokens)
		ref.leaders = append(ref.leaders, ref.docs)
		ref.leaderTokens = append(ref.leaderTokens, doc)
		for _, tok := range doc {
			if len(ref.index[tok]) < ref.maxPostings {
				ref.index[tok] = append(ref.index[tok], best)
			}
		}
	}
	ref.docs++
	return best
}

func (ref *referenceIncremental) bestCluster(doc []string) int {
	clear(ref.counts)
	ref.cands = ref.cands[:0]
	for _, tok := range doc {
		for _, c := range ref.index[tok] {
			if ref.counts[c] == 0 {
				ref.cands = append(ref.cands, c)
			}
			ref.counts[c]++
		}
	}
	sort.Ints(ref.cands)
	best, bestSim := -1, ref.threshold
	for _, c := range ref.cands {
		shared := ref.counts[c]
		union := len(doc) + len(ref.leaderTokens[c]) - shared
		if union == 0 {
			continue
		}
		sim := float64(shared) / float64(union)
		if sim > bestSim {
			best, bestSim = c, sim
		}
	}
	return best
}

func referenceCluster(l *Leader, docs [][]string) Assignment {
	ref := newReferenceIncremental(l)
	assign := Assignment{Cluster: make([]int, len(docs))}
	for d, doc := range docs {
		assign.Cluster[d] = ref.add(doc)
	}
	assign.NumClusters = len(ref.leaderTokens)
	assign.Leaders = ref.leaders
	return assign
}

func equalAssignments(t *testing.T, got, want Assignment) {
	t.Helper()
	if got.NumClusters != want.NumClusters {
		t.Fatalf("NumClusters = %d, reference %d", got.NumClusters, want.NumClusters)
	}
	if !slices.Equal(got.Cluster, want.Cluster) {
		for d := range got.Cluster {
			if got.Cluster[d] != want.Cluster[d] {
				t.Fatalf("doc %d: cluster %d, reference %d", d, got.Cluster[d], want.Cluster[d])
			}
		}
		t.Fatalf("Cluster lengths %d vs reference %d", len(got.Cluster), len(want.Cluster))
	}
	if !slices.Equal(got.Leaders, want.Leaders) {
		t.Fatalf("Leaders = %v, reference %v", got.Leaders, want.Leaders)
	}
}

type namedStream struct {
	name  string
	texts []string
}

// referenceStreams are the tweet streams of the differential test: four
// scenarios at sizes from a factfind body to a few thousand tweets.
func referenceStreams(t *testing.T) []namedStream {
	t.Helper()
	var streams []namedStream
	for _, c := range []struct {
		scenario string
		scale    int
		seed     int64
	}{
		{"Ukraine", 20, 1},
		{"Kirkuk", 30, 11},
		{"Superbug", 10, 5},
		{"Paris Attack", 40, 2},
	} {
		w, err := twittersim.Generate(twittersim.Small(c.scenario, c.scale), randutil.New(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		texts := make([]string, len(w.Tweets))
		for i, tw := range w.Tweets {
			texts[i] = tw.Text
		}
		streams = append(streams, namedStream{fmt.Sprintf("%s-%d-seed%d", c.scenario, c.scale, c.seed), texts})
	}
	return streams
}

// TestClusterMatchesReference is the differential contract of the
// dense-count clusterer and the map-free tokenizer: on every stream,
// threshold and postings cap they produce exactly the reference's tokens
// and Assignment, in batch and through a mid-stream State/Restore.
func TestClusterMatchesReference(t *testing.T) {
	for _, s := range referenceStreams(t) {
		name, texts := s.name, s.texts
		docs := make([][]string, len(texts))
		for i, text := range texts {
			docs[i] = Tokenize(text)
			if want := referenceTokenize(text); !slices.Equal(docs[i], want) {
				t.Fatalf("%s tweet %d: Tokenize(%q) = %q, reference %q", name, i, text, docs[i], want)
			}
		}
		for _, threshold := range []float64{0, 0.3, 0.8} {
			for _, maxPostings := range []int{0, 4, 512} {
				l := &Leader{Threshold: threshold, MaxPostings: maxPostings}
				t.Run(fmt.Sprintf("%s/threshold=%v/maxPostings=%d", name, threshold, maxPostings), func(t *testing.T) {
					want := referenceCluster(l, docs)
					equalAssignments(t, l.Cluster(docs), want)

					// The same stream cut in half, the first half's state
					// persisted through JSON as the ingest snapshot does.
					cut := len(docs) / 2
					inc := l.Incremental()
					for _, doc := range docs[:cut] {
						inc.Add(doc)
					}
					data, err := json.Marshal(inc.State())
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
					for d := cut; d < len(docs); d++ {
						if got := restored.Add(docs[d]); got != want.Cluster[d] {
							t.Fatalf("doc %d after restore: cluster %d, reference %d", d, got, want.Cluster[d])
						}
					}
					if !slices.Equal(restored.Leaders(), want.Leaders) {
						t.Fatal("leaders after restore differ from the reference")
					}
				})
			}
		}
	}
}

// TestBestClusterTieGoesToLowestID: without a sorted scan, candidates are
// scored in first-seen order. Here cluster 1 is seen first (the probe's
// first token is only in its postings) and ties cluster 0 exactly, so only
// the explicit lowest-id rule sends the probe to cluster 0. A probe tying
// both exactly at the threshold joins neither.
func TestBestClusterTieGoesToLowestID(t *testing.T) {
	leaders := [][]string{
		{"a", "b", "x"}, // cluster 0
		{"y", "a", "b"}, // cluster 1: Jaccard 2/4 with cluster 0, not above 0.5
	}
	cases := []struct {
		probe []string
		want  [2]int // at thresholds 0.5 and 2/3
	}{
		{[]string{"y", "a", "b", "x"}, [2]int{0, 0}}, // 3/4 with both, cluster 1 seen first
		{[]string{"x", "a", "b", "y"}, [2]int{0, 0}}, // the same tie, cluster 0 seen first
		{[]string{"y", "a", "b", "z"}, [2]int{1, 1}}, // 3/4 with cluster 1, 2/5 with cluster 0
		{[]string{"a", "p", "q"}, [2]int{2, 2}},      // 1/5 with both: founds cluster 2
		{[]string{"a", "b"}, [2]int{0, 2}},           // 2/3 with both: at 2/3 it is not above
	}
	for k, threshold := range []float64{0.5, 2.0 / 3} {
		for _, c := range cases {
			l := &Leader{Threshold: threshold}
			docs := append(slices.Clone(leaders), c.probe)
			got := l.Cluster(docs)
			equalAssignments(t, got, referenceCluster(l, docs))
			if got.Cluster[2] != c.want[k] {
				t.Fatalf("threshold %v, probe %v: cluster %d, want %d", threshold, c.probe, got.Cluster[2], c.want[k])
			}
		}
	}
}

// FuzzTokenize: Tokenize returns the reference's tokens byte for byte on
// any input, invalid UTF-8 and the trimmed punctuation runes included.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"RT @user12: Bomb threat at Mira Costa!",
		"check http://t.co/abc now now now",
		"…—-word—… \"(quoted)\" [x] {y} it's",
		"a\xffb \xff\xfe… \u00a0nbsp\u2003em\u2028 ÉCOLE école",
		strings.Repeat("dup ", 40) + strings.Repeat("w1 w2 w3 ", 20),
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, want := Tokenize(text), referenceTokenize(text)
		if !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", text, got, want)
		}
	})
}

// TestTokenizeLargeMessageIsLinear: the linear-scan dedup is quadratic in
// the number of fields, so a long body must take the hash path. A scan of
// a 200k-word body makes ~2·10^10 string comparisons, over a minute of
// work, where the hash path takes milliseconds; the body is tokenized under
// a deadline inside that margin, so a quadratic Tokenize fails in seconds
// whatever it allocates.
func TestTokenizeLargeMessageIsLinear(t *testing.T) {
	const n = 200_000
	const deadline = 5 * time.Second
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "w%d ", i)
	}
	sb.WriteString("w0 w1 W2.") // duplicates at the end
	text := sb.String()

	done := make(chan []string, 1)
	go func() { done <- Tokenize(text) }()
	var got []string
	select {
	case got = <-done:
	case <-time.After(deadline):
		t.Fatalf("Tokenize of a %d-word body did not return within %v: its dedup is not linear", n, deadline)
	}
	if len(got) != n {
		t.Fatalf("%d tokens, want %d", len(got), n)
	}
	if want := referenceTokenize(text); !slices.Equal(got, want) {
		t.Fatal("tokens differ from the reference")
	}
}
