package core_test

import (
	"context"
	"testing"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/claims"
	"depsense/internal/core"
	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

// BenchmarkFactfindFit times the cold EM-Ext fit of one /v1/factfind body
// as the factfind benchmark builds it: a Ukraine 1/20 world (about 270
// sources and 185 assertions), clustered and given its dependency
// indicators by the apollo pipeline, fitted with the server's options.
// Each op fits eight such datasets, from world seeds 1–8.
func BenchmarkFactfindFit(b *testing.B) {
	var sets []*claims.Dataset
	for seed := int64(1); seed <= 8; seed++ {
		w, err := twittersim.Generate(twittersim.Small("Ukraine", 20), randutil.New(seed))
		if err != nil {
			b.Fatal(err)
		}
		msgs := make([]apollo.Message, len(w.Tweets))
		for i, t := range w.Tweets {
			msgs[i] = apollo.Message{Source: t.Source, Time: int64(t.ID), Text: t.Text}
		}
		out, err := apollo.Run(apollo.Input{NumSources: w.Graph.N(), Messages: msgs, Graph: w.Graph},
			baselines.ExtendedByName("Voting", core.Options{}), apollo.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sets = append(sets, out.Dataset)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ds := range sets {
			if _, err := core.RunCtx(context.Background(), ds, core.VariantExt, core.Options{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
