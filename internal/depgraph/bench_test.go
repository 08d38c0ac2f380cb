package depgraph_test

import (
	"testing"

	"depsense/internal/claims"
	"depsense/internal/cluster"
	"depsense/internal/depgraph"
	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

var benchDataset *claims.Dataset

// BenchmarkBuildDataset times one cold D derivation over the final corpus
// of a streamed Ukraine Table III world (seed 1): assertions are the
// incremental leader clusterer's ids and follow edges come from retweets,
// as the ingest pipeline derives them. That corpus is 5,403 sources, 4,070
// assertions, 7,169 claims and 10,657 silent-dependent pairs — the dataset
// every late refit of an ingest run rebuilds.
func BenchmarkBuildDataset(b *testing.B) {
	w, err := twittersim.Generate(twittersim.Small("Ukraine", 1), randutil.New(1))
	if err != nil {
		b.Fatal(err)
	}
	inc := (&cluster.Leader{}).Incremental()
	var events []depgraph.Event
	var follows [][2]int
	n := 0
	for _, t := range w.Tweets {
		events = append(events, depgraph.Event{Source: t.Source, Assertion: inc.Add(cluster.Tokenize(t.Text)), Time: int64(t.ID)})
		n = max(n, t.Source+1)
		if rt := w.RetweetedSource(t); rt >= 0 && rt != t.Source {
			follows = append(follows, [2]int{t.Source, rt})
			n = max(n, rt+1)
		}
	}
	g := depgraph.NewGraph(n)
	for _, f := range follows {
		if err := g.AddFollow(f[0], f[1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		benchDataset, err = depgraph.BuildDataset(g, events, inc.NumClusters())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := benchDataset.Summarize(); got.Sources != 5403 || got.Assertions != 4070 ||
		got.TotalClaims != 7169 || got.SilentDependent != 10657 {
		b.Fatalf("corpus drifted: %v", got)
	}
}
