package cluster

import (
	"fmt"
	"testing"
	"testing/quick"

	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"RT @user12: Bomb threat at Mira Costa!", []string{"bomb", "threat", "mira", "costa"}},
		{"The explosion was near THE bridge.", []string{"explosion", "near", "bridge"}},
		{"check http://t.co/abc now now now", []string{"check", "now"}},
		{"", nil},
		{"rt rt RT", nil},
		{"...!!!", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestTokenizeDeduplicates(t *testing.T) {
	got := Tokenize("fire fire fire alarm")
	if len(got) != 2 {
		t.Fatalf("tokens = %v", got)
	}
}

func TestRetweetClustersWithOriginal(t *testing.T) {
	original := "witness3 reported explosion near bridge7 #paris"
	retweet := "rt @user55: witness3 reported explosion near bridge7 #paris"
	other := "official9 denied outage near campus2 #paris"

	l := &Leader{}
	docs := [][]string{Tokenize(original), Tokenize(retweet), Tokenize(other)}
	a := l.Cluster(docs)
	if a.Cluster[0] != a.Cluster[1] {
		t.Fatal("retweet not clustered with its original")
	}
	if a.Cluster[2] == a.Cluster[0] {
		t.Fatal("unrelated tweet merged")
	}
	if a.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2", a.NumClusters)
	}
}

func TestLeadersRecorded(t *testing.T) {
	l := &Leader{}
	a := l.Cluster([][]string{
		{"alpha", "beta", "gamma"},
		{"alpha", "beta", "gamma", "delta"},
		{"omega", "psi", "chi"},
	})
	if len(a.Leaders) != a.NumClusters {
		t.Fatalf("leaders %d vs clusters %d", len(a.Leaders), a.NumClusters)
	}
	if a.Leaders[0] != 0 || a.Leaders[1] != 2 {
		t.Fatalf("leaders = %v", a.Leaders)
	}
}

func TestThresholdControlsMerging(t *testing.T) {
	// 3 of 5 shared tokens: Jaccard = 3/7 ≈ 0.43.
	a := []string{"t1", "t2", "t3", "x1", "x2"}
	b := []string{"t1", "t2", "t3", "y1", "y2"}
	strict := &Leader{Threshold: 0.5}
	if got := strict.Cluster([][]string{a, b}); got.NumClusters != 2 {
		t.Fatal("0.43 similarity merged at threshold 0.5")
	}
	loose := &Leader{Threshold: 0.4}
	if got := loose.Cluster([][]string{a, b}); got.NumClusters != 1 {
		t.Fatal("0.43 similarity not merged at threshold 0.4")
	}
}

func TestEmptyDocuments(t *testing.T) {
	l := &Leader{}
	a := l.Cluster([][]string{nil, {"word"}, nil})
	if len(a.Cluster) != 3 {
		t.Fatalf("assignments = %v", a.Cluster)
	}
	// Empty docs cannot share tokens; each becomes its own cluster.
	if a.Cluster[0] == a.Cluster[1] || a.Cluster[0] == a.Cluster[2] {
		t.Fatalf("empty docs merged: %v", a.Cluster)
	}
}

func TestClusterAssignmentsComplete(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		docs := make([][]string, 30)
		for d := range docs {
			n := int(seed>>uint(d%8))%4 + 1
			for k := 0; k < n; k++ {
				docs[d] = append(docs[d], fmt.Sprintf("tok%d", (int(seed)+d*k)%17))
			}
		}
		a := (&Leader{}).Cluster(docs)
		if len(a.Cluster) != len(docs) {
			return false
		}
		for _, c := range a.Cluster {
			if c < 0 || c >= a.NumClusters {
				return false
			}
		}
		// Every cluster id must be used.
		used := make([]bool, a.NumClusters)
		for _, c := range a.Cluster {
			used[c] = true
		}
		for _, u := range used {
			if !u {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxPostingsStopsHubTokens(t *testing.T) {
	// 300 docs sharing one hub token plus a unique token each: with a tiny
	// postings cap the clusterer must still terminate and produce 300
	// singleton clusters (hub token alone is below threshold anyway).
	docs := make([][]string, 300)
	for d := range docs {
		docs[d] = []string{"hub", fmt.Sprintf("unique%d", d), fmt.Sprintf("extra%d", d)}
	}
	a := (&Leader{MaxPostings: 4}).Cluster(docs)
	if a.NumClusters != 300 {
		t.Fatalf("clusters = %d, want 300", a.NumClusters)
	}
}

// twittersimSmall tokenizes a small simulated stream.
func twittersimSmall(t *testing.T) [][]string {
	t.Helper()
	sc := twittersim.Small("Ukraine", 20)
	w, err := twittersim.Generate(sc, randutil.New(3))
	if err != nil {
		t.Fatal(err)
	}
	docs := make([][]string, len(w.Tweets))
	for i, tw := range w.Tweets {
		docs[i] = Tokenize(tw.Text)
	}
	return docs
}

// TestClusterStableAcrossRuns is the regression test for the map-iteration
// fix in Leader.Cluster: documents engineered to tie on Jaccard similarity
// between two clusters must land in the same cluster on every run. Before
// the fix, candidate clusters were scanned in map order, so the winner of a
// tie depended on Go's randomized map iteration.
func TestClusterStableAcrossRuns(t *testing.T) {
	// Leaders l1 = {a, b, x} and l2 = {a, b, y}; the probe {a, b} has
	// Jaccard 2/3 with both, an exact tie. The contract: lowest cluster
	// id wins.
	docs := [][]string{
		{"a", "b", "x"},
		{"a", "b", "y"},
		{"a", "b"},
	}
	l := &Leader{Threshold: 0.5}
	first := l.Cluster(docs)
	if first.Cluster[2] != 0 {
		t.Fatalf("tie broke to cluster %d, want lowest id 0", first.Cluster[2])
	}
	for run := 0; run < 50; run++ {
		got := l.Cluster(docs)
		for d := range docs {
			if got.Cluster[d] != first.Cluster[d] {
				t.Fatalf("run %d: doc %d assigned to %d, first run said %d",
					run, d, got.Cluster[d], first.Cluster[d])
			}
		}
	}
}
