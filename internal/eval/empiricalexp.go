package eval

import (
	"fmt"
	"io"
	"strconv"

	"depsense/internal/apollo"
	"depsense/internal/baselines"
	"depsense/internal/grader"
	"depsense/internal/randutil"
	"depsense/internal/twittersim"
)

// EmpiricalAlgNames is the Fig. 11 lineup in the paper's order.
var EmpiricalAlgNames = []string{
	"EM-Ext", "EM-Social", "EM", "Voting", "Sums", "Average.Log", "Truth-Finder",
}

// EmpiricalRow is one dataset's results: the realized Table III statistics
// and the Fig. 11 top-K grading per algorithm.
type EmpiricalRow struct {
	Scenario twittersim.Scenario
	Summary  twittersim.Summary
	// DatasetSummary describes the pipeline-derived source-claim matrix
	// (post-clustering).
	DatasetAssertions int
	// Scores maps algorithm name to its graded top-K score.
	Scores map[string]grader.Score
}

// EmpiricalResult is the full empirical evaluation.
type EmpiricalResult struct {
	Rows []EmpiricalRow
	TopK int
}

// Empirical runs the Apollo pipeline with every Fig. 11 algorithm over the
// five Table III-scale simulated Twitter datasets.
func Empirical(c Config) (EmpiricalResult, error) {
	c = c.normalized()
	out := EmpiricalResult{TopK: topK}
	for si, preset := range twittersim.Presets() {
		sc := preset
		if c.EmpiricalScale > 1 {
			sc = twittersim.Small(preset.Name, c.EmpiricalScale)
		}
		row := EmpiricalRow{Scenario: sc, Scores: make(map[string]grader.Score)}
		for seed := 0; seed < c.EmpiricalSeeds; seed++ {
			rng := randutil.New(c.Seed + int64(100*si+17*seed))
			w, err := twittersim.Generate(sc, rng)
			if err != nil {
				return EmpiricalResult{}, fmt.Errorf("eval: empirical %s: %w", sc.Name, err)
			}
			if seed == 0 {
				row.Summary = w.Summarize()
			}
			msgs := make([]apollo.Message, len(w.Tweets))
			for i, t := range w.Tweets {
				msgs[i] = apollo.Message{Source: t.Source, Time: int64(t.ID), Text: t.Text}
			}
			in := apollo.Input{NumSources: sc.Sources, Messages: msgs, Graph: w.Graph}

			for _, alg := range baselines.All() {
				pipe, err := apollo.RunContext(c.Ctx, in, alg, apollo.Options{TopK: topK})
				if err != nil {
					return EmpiricalResult{}, fmt.Errorf("eval: empirical %s %s: %w", sc.Name, alg.Name(), err)
				}
				if seed == 0 {
					row.DatasetAssertions = pipe.Dataset.M()
				}
				labels, err := grader.Grade(pipe.MessageAssertion, w.Tweets, w.Kinds)
				if err != nil {
					return EmpiricalResult{}, err
				}
				score, err := grader.ScoreTopK(pipe.Ranked, labels)
				if err != nil {
					return EmpiricalResult{}, err
				}
				// Pool grading counts across seeds; Accuracy() of the
				// pooled counts is the seed-weighted average.
				agg := row.Scores[alg.Name()]
				agg.True += score.True
				agg.False += score.False
				agg.Opinion += score.Opinion
				row.Scores[alg.Name()] = agg
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// RenderTableIII writes the dataset summary next to the paper's targets
// (Table III).
func (r EmpiricalResult) RenderTableIII(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Table III: simulated dataset scale (reproduced vs paper target)"); err != nil {
		return err
	}
	t := &table{header: []string{
		"dataset", "sources", "(paper)", "assertions", "(paper)",
		"claims", "(paper)", "original", "(paper)", "clusters",
	}}
	for _, row := range r.Rows {
		t.add(row.Scenario.Name,
			strconv.Itoa(row.Summary.Sources), strconv.Itoa(row.Scenario.Sources),
			strconv.Itoa(row.Summary.Assertions), strconv.Itoa(row.Scenario.Assertions),
			strconv.Itoa(row.Summary.TotalClaims), strconv.Itoa(row.Scenario.Claims),
			strconv.Itoa(row.Summary.OriginalClaims), strconv.Itoa(row.Scenario.OriginalClaims),
			strconv.Itoa(row.DatasetAssertions),
		)
	}
	return t.write(w)
}

// RenderFig11 writes the per-algorithm top-K accuracies (Fig. 11).
func (r EmpiricalResult) RenderFig11(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fig 11: top-%d accuracy #True/(#True+#False+#Opinion)\n", r.TopK); err != nil {
		return err
	}
	header := append([]string{"dataset"}, EmpiricalAlgNames...)
	t := &table{header: header}
	for _, row := range r.Rows {
		cells := []string{row.Scenario.Name}
		for _, a := range EmpiricalAlgNames {
			cells = append(cells, f3(row.Scores[a].Accuracy()))
		}
		t.add(cells...)
	}
	return t.write(w)
}
