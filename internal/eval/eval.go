// Package eval is the experiment harness: one runner per table and figure
// of the paper's evaluation (Section V), each producing the same rows or
// series the paper reports. The cmd/experiments binary and the repository's
// benchmarks are thin wrappers around these runners.
//
// Runners are deterministic given a seed. The Config knobs trade fidelity
// (the paper's run counts) against wall-clock time; DefaultConfig matches
// the paper, QuickConfig is a fast smoke-scale variant used in tests.
package eval

import (
	"context"
	"fmt"
	"io"
	"strings"

	"depsense/internal/bound"
)

// Config scales the experiment runners.
type Config struct {
	// Ctx, when set, bounds the runners: cancellation stops dispatching
	// repetitions and propagates the context's error. It lives in Config
	// rather than in every Fig* signature so the dozen exported runners
	// keep their simple (Config) shape. Nil means context.Background().
	Ctx context.Context
	// Seed drives all randomness.
	Seed int64
	// BoundRuns is the number of independent repetitions for the bound
	// experiments (the paper uses 20).
	BoundRuns int
	// EstimatorRuns is the number of repetitions for the estimator
	// simulations (the paper uses 300).
	EstimatorRuns int
	// OptimalRuns bounds how many repetitions compute the "Optimal" curve
	// (the approximate bound is costlier than the estimators; the average
	// stabilizes well before EstimatorRuns).
	OptimalRuns int
	// MaxExactColumns caps the distinct dependency columns evaluated
	// exactly per run; 0 means all (the paper's exact bound). Sampling
	// trades a little accuracy for large speedups at n ≥ 20.
	MaxExactColumns int
	// GibbsSweeps caps the Gibbs chains of the approximate bound.
	GibbsSweeps int
	// EmpiricalScale divides the Table III scenario volumes (1 = full
	// scale).
	EmpiricalScale int
	// EmpiricalSeeds is the number of independently simulated datasets per
	// scenario; grading counts are pooled across them. The paper grades
	// one real dataset per event, but simulated datasets carry seed
	// variance worth averaging out (default 3).
	EmpiricalSeeds int
	// Workers bounds the experiment runners' parallelism across
	// independent repetitions (0 = GOMAXPROCS, 1 = sequential).
	Workers int
}

// topK is the empirical evaluation cut-off: the paper grades the top 100.
const topK = 100

// DefaultConfig reproduces the paper's experiment scales.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		BoundRuns:       20,
		EstimatorRuns:   300,
		OptimalRuns:     20,
		MaxExactColumns: 0,
		GibbsSweeps:     bound.DefaultGibbsSweeps,
		EmpiricalScale:  1,
	}
}

// QuickConfig is a reduced-scale configuration for tests and smoke runs.
func QuickConfig() Config {
	return Config{
		Seed:            1,
		BoundRuns:       3,
		EstimatorRuns:   8,
		OptimalRuns:     3,
		MaxExactColumns: 6,
		GibbsSweeps:     1500,
		EmpiricalScale:  20,
		EmpiricalSeeds:  1,
	}
}

func (c Config) normalized() Config {
	d := DefaultConfig()
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	if c.BoundRuns <= 0 {
		c.BoundRuns = d.BoundRuns
	}
	if c.EstimatorRuns <= 0 {
		c.EstimatorRuns = d.EstimatorRuns
	}
	if c.OptimalRuns <= 0 {
		c.OptimalRuns = d.OptimalRuns
	}
	if c.GibbsSweeps <= 0 {
		c.GibbsSweeps = d.GibbsSweeps
	}
	if c.EmpiricalScale <= 0 {
		c.EmpiricalScale = 1
	}
	if c.EmpiricalSeeds <= 0 {
		c.EmpiricalSeeds = 3
	}
	return c
}

// table renders an aligned text table.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
