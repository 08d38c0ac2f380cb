package eval

import (
	"fmt"
	"io"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/grader"
	"depsense/internal/randutil"
	"depsense/internal/synthetic"
	"depsense/internal/twittersim"
)

// ExtDepthEstimators is an extension experiment beyond the paper: the
// estimator comparison of Fig. 9 repeated over dependency forests of
// increasing depth (2 = the paper's level-two structure; deeper trees model
// repeat cascades — retweets of retweets). The paper's model conditions
// each source only on its direct ancestors, so EM-Ext requires no changes;
// the question the sweep answers is whether its advantage survives when
// independent evidence thins out with depth.
func ExtDepthEstimators(c Config) (EstimatorSeries, error) {
	var cfgs []synthetic.Config
	var xs []float64
	for depth := 2; depth <= 6; depth++ {
		cfg := synthetic.EstimatorConfig()
		cfg.Trees = synthetic.FixedInt(5)
		cfg.Depth = synthetic.IntRange{Lo: depth, Hi: depth}
		cfgs = append(cfgs, cfg)
		xs = append(xs, float64(depth))
	}
	return estimatorSweep("Extension: estimator accuracy vs dependency depth (tau=5)", "depth", xs, cfgs, c)
}

// SybilPoint is one sweep point of the sybil-attack extension.
type SybilPoint struct {
	Sybils int
	// Scores maps algorithm name to pooled top-K grading.
	Scores map[string]grader.Score
}

// SybilResult is the full attack sweep.
type SybilResult struct {
	Points []SybilPoint
	TopK   int
}

// ExtSybilAttack is an extension experiment beyond the paper: a coordinated
// bot network of growing size retweets a fixed set of rumors on the Ukraine
// scenario, and each fact-finder's graded top-K accuracy is tracked.
//
// The sweep exposes both sides of the dependency model. Up to moderate
// attack sizes EM-Ext holds steady (the bots' support is visibly dependent
// and discounted) while popularity-driven rankers degrade. At extreme sizes
// EM-Ext itself collapses: the model links each bot only to the retweeted
// author, not to its hundreds of siblings, so the bots' claims and silences
// enter the likelihood as independent evidence and any per-pair channel
// ratio r ≠ 1 compounds to r^(#bots) — a conditional-independence failure no
// parameter estimate can absorb. EM-Social, which deletes dependent claims
// outright, is the more robust policy at that extreme. This is the
// quantitative version of the model limitation noted in DESIGN.md.
func ExtSybilAttack(c Config) (SybilResult, error) {
	c = c.normalized()
	scale := c.EmpiricalScale
	if scale < 4 {
		scale = 4 // the sweep repeats per sybil level; keep it affordable
	}
	out := SybilResult{TopK: topK}
	for _, sybils := range []int{0, 25, 50, 100, 200} {
		sc := twittersim.Small("Ukraine", scale)
		sc.Sybils = sybils * 4 / scale // scale the attack with the dataset
		if sybils > 0 && sc.Sybils == 0 {
			sc.Sybils = 1
		}
		sc.SybilTargets = 10
		point := SybilPoint{Sybils: sc.Sybils, Scores: map[string]grader.Score{}}
		for seed := 0; seed < c.EmpiricalSeeds; seed++ {
			rng := randutil.New(c.Seed + int64(31*seed+sybils))
			w, err := twittersim.Generate(sc, rng)
			if err != nil {
				return SybilResult{}, err
			}
			msgs := make([]apollo.Message, len(w.Tweets))
			for i, t := range w.Tweets {
				msgs[i] = apollo.Message{Source: t.Source, Time: int64(t.ID), Text: t.Text}
			}
			in := apollo.Input{NumSources: sc.Sources + sc.Sybils, Messages: msgs, Graph: w.Graph}
			for _, alg := range baselines.All() {
				pipe, err := apollo.RunContext(c.Ctx, in, alg, apollo.Options{TopK: topK})
				if err != nil {
					return SybilResult{}, fmt.Errorf("eval: sybil %s: %w", alg.Name(), err)
				}
				labels, err := grader.Grade(pipe.MessageAssertion, w.Tweets, w.Kinds)
				if err != nil {
					return SybilResult{}, err
				}
				score, err := grader.ScoreTopK(pipe.Ranked, labels)
				if err != nil {
					return SybilResult{}, err
				}
				agg := point.Scores[alg.Name()]
				agg.True += score.True
				agg.False += score.False
				agg.Opinion += score.Opinion
				point.Scores[alg.Name()] = agg
			}
		}
		out.Points = append(out.Points, point)
	}
	return out, nil
}

// Render writes the sybil sweep as a table.
func (r SybilResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Extension: top-%d accuracy under a coordinated sybil attack (Ukraine)\n", r.TopK); err != nil {
		return err
	}
	header := append([]string{"sybils"}, EmpiricalAlgNames...)
	t := &table{header: header}
	for _, p := range r.Points {
		row := []string{fmt.Sprintf("%d", p.Sybils)}
		for _, a := range EmpiricalAlgNames {
			row = append(row, f3(p.Scores[a].Accuracy()))
		}
		t.add(row...)
	}
	return t.write(w)
}
