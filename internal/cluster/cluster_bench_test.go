package cluster

import (
	"fmt"
	"testing"

	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

// BenchmarkLeaderCluster measures clustering throughput on simulated tweet
// streams of increasing volume.
func BenchmarkLeaderCluster(b *testing.B) {
	for _, scale := range []int{40, 10, 4} {
		sc := twittersim.Small("Paris Attack", scale)
		w, err := twittersim.Generate(sc, randutil.New(1))
		if err != nil {
			b.Fatal(err)
		}
		docs := make([][]string, len(w.Tweets))
		for i, t := range w.Tweets {
			docs[i] = Tokenize(t.Text)
		}
		b.Run(fmt.Sprintf("tweets=%d", len(docs)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				(&Leader{}).Cluster(docs)
			}
		})
	}
}

// BenchmarkTokenize measures tokenization of a typical retweet.
func BenchmarkTokenize(b *testing.B) {
	const tweet = "rt @user8812: breaking witness12 reported explosion near bridge7 n412 #paris http://t.co/abc123"
	for i := 0; i < b.N; i++ {
		Tokenize(tweet)
	}
}
