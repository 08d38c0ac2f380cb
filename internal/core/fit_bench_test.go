package core_test

import (
	"context"
	"math"
	"testing"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/claims"
	"depsense/internal/core"
	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

// factfindSets builds the datasets of eight /v1/factfind bodies as the
// factfind benchmark builds them: Ukraine 1/20 worlds (about 270 sources
// and 185 assertions) from world seeds 1–8, clustered and given their
// dependency indicators by the apollo pipeline.
func factfindSets(tb testing.TB) []*claims.Dataset {
	tb.Helper()
	var sets []*claims.Dataset
	for seed := int64(1); seed <= 8; seed++ {
		w, err := twittersim.Generate(twittersim.Small("Ukraine", 20), randutil.New(seed))
		if err != nil {
			tb.Fatal(err)
		}
		msgs := make([]apollo.Message, len(w.Tweets))
		for i, t := range w.Tweets {
			msgs[i] = apollo.Message{Source: t.Source, Time: int64(t.ID), Text: t.Text}
		}
		out, err := apollo.Run(apollo.Input{NumSources: w.Graph.N(), Messages: msgs, Graph: w.Graph},
			baselines.ExtendedByName("Voting", core.Options{}), apollo.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		sets = append(sets, out.Dataset)
	}
	return sets
}

// BenchmarkFactfindFit times the cold EM-Ext fit of one /v1/factfind body
// with the server's options; each op fits the eight factfindSets. iters/op
// is the mean EM iterations per fit.
func BenchmarkFactfindFit(b *testing.B) {
	sets := factfindSets(b)
	b.ReportAllocs()
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		for _, ds := range sets {
			res, err := core.RunCtx(context.Background(), ds, core.VariantExt, core.Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			iters += res.Iterations
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N*len(sets)), "iters/op")
}

// TestColdFitIterations gates the cold-fit accelerator by its iteration
// count, which no host speed moves: over the eight factfindSets bodies, the
// EM-Ext fit with the server's options takes at most 50 iterations on
// average. The plain map took 110.1.
func TestColdFitIterations(t *testing.T) {
	sets := factfindSets(t)
	iters := 0
	for _, ds := range sets {
		res, err := core.RunCtx(context.Background(), ds, core.VariantExt, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		iters += res.Iterations
	}
	if mean := float64(iters) / float64(len(sets)); mean > 50 {
		t.Errorf("cold EM-Ext fits take %.2f iterations on average, want at most 50", mean)
	}
}

// TestColdFitFixedPointBodies: on the factfindSets bodies, the plug-in
// EM-Ext fit run to convergence scores every assertion within 2e-3 of the
// plug-in built on a plain EM-Social fit from the same vote start run to
// Tol 1e-10 (largest measured: 2.1e-4).
func TestColdFitFixedPointBodies(t *testing.T) {
	for k, ds := range factfindSets(t) {
		got, err := core.RunCtx(context.Background(), ds, core.VariantExt, core.Options{MaxIters: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		coarse := core.PlainColdFit(ds, core.VariantSocial, core.Options{Tol: 1e-10, MaxIters: 1_000_000})
		if !got.Converged || !coarse.Converged {
			t.Fatalf("body %d: converged SQUAREM %v, plain %v", k, got.Converged, coarse.Converged)
		}
		params := coarse.Params.Clone()
		f, g := core.PooledDependentChannel(ds, coarse.Posterior)
		for i := range params.Sources {
			params.Sources[i].F, params.Sources[i].G = f, g
		}
		want, _, err := core.PosteriorOpts(ds, params, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for j, p := range want {
			worst = math.Max(worst, math.Abs(got.Posterior[j]-p))
		}
		if worst > 2e-3 {
			t.Errorf("body %d: posteriors %.3g from the plain fixed point", k, worst)
		}
	}
}
