package cluster

import (
	"fmt"
	"testing"

	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

// BenchmarkLeaderCluster measures clustering throughput on simulated tweet
// streams of increasing volume. The Ukraine case is one /v1/factfind body
// as the factfind benchmark builds it (scale 1/20, ~360 messages).
func BenchmarkLeaderCluster(b *testing.B) {
	cases := []struct {
		scenario string
		scale    int
	}{
		{"Ukraine", 20},
		{"Paris Attack", 40},
		{"Paris Attack", 10},
		{"Paris Attack", 4},
	}
	for _, c := range cases {
		w, err := twittersim.Generate(twittersim.Small(c.scenario, c.scale), randutil.New(1))
		if err != nil {
			b.Fatal(err)
		}
		docs := make([][]string, len(w.Tweets))
		for i, t := range w.Tweets {
			docs[i] = Tokenize(t.Text)
		}
		b.Run(fmt.Sprintf("%s/tweets=%d", c.scenario, len(docs)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				(&Leader{}).Cluster(docs)
			}
		})
	}
}

// BenchmarkTokenize measures tokenization of a typical retweet.
func BenchmarkTokenize(b *testing.B) {
	const tweet = "rt @user8812: breaking witness12 reported explosion near bridge7 n412 #paris http://t.co/abc123"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(tweet)
	}
}
