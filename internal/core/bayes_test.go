package core

import (
	"fmt"
	"math"
	"testing"

	"depsense/internal/bound"
	"depsense/internal/randutil"
	"depsense/internal/synthetic"
)

// TestPosteriorMatchesExactBayes checks the E-step kernel against the
// model's own product form, computed independently by the bound package:
// for assertion j with claim pattern s_j and dependency column D_j, the
// joint masses w1 = z·P(s_j|C=1) and w0 = (1−z)·P(s_j|C=0) come from
// bound.NewColumn(θ, D_j).PatternWeights(s_j). At known θ every posterior
// must be w1/(w1+w0), and the log-likelihood Σ_j log(w1+w0).
func TestPosteriorMatchesExactBayes(t *testing.T) {
	for world := 0; world < 40; world++ {
		n := 4 + world%13 // 4..16 sources: small enough for plain products
		cfg := synthetic.DefaultConfig()
		cfg.Sources = n
		if cfg.Trees.Hi > n {
			cfg.Trees = synthetic.FixedInt((n + 1) / 2)
		}
		w, err := synthetic.Generate(cfg, randutil.New(int64(500+world)))
		if err != nil {
			t.Fatal(err)
		}
		ds, p := w.Dataset, w.TrueParams
		post, ll, err := PosteriorOpts(ds, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("world %d (n=%d)", world, n)
		wantLL := 0.0
		pattern := make([]bool, n)
		for j := 0; j < ds.M(); j++ {
			col, err := bound.NewColumn(p, ds.DependencyColumn(j))
			if err != nil {
				t.Fatal(err)
			}
			clear(pattern)
			for _, s := range ds.Claimants(j) {
				pattern[s] = true
			}
			w1, w0 := col.PatternWeights(pattern)
			if d := math.Abs(post[j] - w1/(w1+w0)); d > 1e-12 {
				t.Errorf("%s, assertion %d: posterior %v, exact Bayes %v (diff %.3g)", name, j, post[j], w1/(w1+w0), d)
			}
			wantLL += math.Log(w1 + w0)
		}
		if d := math.Abs(ll-wantLL) / math.Abs(wantLL); d > 1e-12 {
			t.Errorf("%s: log-likelihood %v, exact %v (relative diff %.3g)", name, ll, wantLL, d)
		}
	}
}
