// Package bound computes the paper's fundamental error bound (Section III):
// the Bayes risk of an optimal estimator that knows the source parameter set
// θ and the dependency indicators D exactly. Any fact-finder's expected
// misclassification rate on an assertion is lower-bounded by this value.
//
// Exact computes Eq. (3) by enumerating all 2^n claim patterns;
// ApproxContext implements the Gibbs-sampling approximation of Algorithm 1;
// Convolution is a deterministic lattice DP over the log-likelihood ratio,
// which ForDatasetContext shares across every distinct dependency column. All decompose
// the bound into its false-positive part (false assertions the optimal
// estimator would label true) and false-negative part (true assertions it
// would label false).
package bound

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"depsense/internal/model"
	"depsense/internal/parallel"
	"depsense/internal/runctx"
)

// Column is the bound's input for a single assertion: the prior z and, for
// every source, the claim probability under each hypothesis, already
// resolved through the dependency indicator:
//
//	P1[i] = P(S_iC_j = 1 | C_j = 1) = a_i if D_ij = 0 else f_i
//	P0[i] = P(S_iC_j = 1 | C_j = 0) = b_i if D_ij = 0 else g_i
type Column struct {
	P1 []float64
	P0 []float64
	Z  float64
}

// Errors returned by the bound computations.
var (
	ErrEmptyColumn   = errors.New("bound: column has no sources")
	ErrColumnLengths = errors.New("bound: P1 and P0 lengths differ")
	ErrTooManyExact  = errors.New("bound: too many sources for exact enumeration")
)

// MaxExactSources caps the exact enumeration; 2^30 patterns is already ~10s
// of CPU, and the whole point of Algorithm 1 is that exact computation is
// intractable beyond roughly this size.
const MaxExactSources = 30

// NewColumn resolves a dependency column against a parameter set, clamping
// probabilities away from {0, 1} so products and logs stay finite.
func NewColumn(p *model.Params, depCol []bool) (Column, error) {
	n := p.NumSources()
	if n == 0 {
		return Column{}, model.ErrNoSources
	}
	if len(depCol) != n {
		return Column{}, fmt.Errorf("bound: dependency column length %d != sources %d", len(depCol), n)
	}
	col := Column{
		P1: make([]float64, n),
		P0: make([]float64, n),
		Z:  model.ClampProb(p.Z),
	}
	for i, s := range p.Sources {
		s = s.Clamp()
		if depCol[i] {
			col.P1[i] = s.F
			col.P0[i] = s.G
		} else {
			col.P1[i] = s.A
			col.P0[i] = s.B
		}
	}
	return col, nil
}

// Validate checks structural sanity of a hand-built column.
func (c Column) Validate() error {
	if len(c.P1) == 0 {
		return ErrEmptyColumn
	}
	if len(c.P1) != len(c.P0) {
		return fmt.Errorf("%w: %d vs %d", ErrColumnLengths, len(c.P1), len(c.P0))
	}
	if math.IsNaN(c.Z) || c.Z < 0 || c.Z > 1 {
		return fmt.Errorf("bound: prior z = %v out of [0,1]", c.Z)
	}
	for i := range c.P1 {
		for _, v := range [...]float64{c.P1[i], c.P0[i]} {
			if math.IsNaN(v) || v < 0 || v > 1 {
				return fmt.Errorf("bound: claim probability %v out of [0,1] at source %d", v, i)
			}
		}
	}
	return nil
}

// N returns the number of sources in the column.
func (c Column) N() int { return len(c.P1) }

// PatternWeights returns the two joint masses of a claim pattern s:
// w1 = z·P(s|C=1) and w0 = (1-z)·P(s|C=0), as plain products. No program
// calls it: tests use it as the model's product form, the reference for
// the exact enumeration here and for the EM E-step in internal/core.
func (c Column) PatternWeights(pattern []bool) (w1, w0 float64) {
	w1, w0 = c.Z, 1-c.Z
	for i, on := range pattern {
		if on {
			w1 *= c.P1[i]
			w0 *= c.P0[i]
		} else {
			w1 *= 1 - c.P1[i]
			w0 *= 1 - c.P0[i]
		}
	}
	return w1, w0
}

// Result is a computed error bound and its decomposition. Err = FalsePos +
// FalseNeg up to floating-point error. For ApproxContext results, StdErr
// estimates the Monte Carlo standard error of Err and Sweeps records chain
// length; both are zero for exact results.
type Result struct {
	Err      float64
	FalsePos float64
	FalseNeg float64
	StdErr   float64
	Sweeps   int
}

// exactBlockBits is the suffix width of one enumeration block: blocks hold
// 2^exactBlockBits patterns each.
const exactBlockBits = 15

// ExactBlockPatterns is the block granularity of the exact enumeration: the
// 2^n pattern space splits into fixed blocks of this many patterns (the
// first n-15 bits index the block, the last 15 enumerate within it). The
// context is checked — and any runctx hook fired — once per block, so a
// cancel returns within one block of work regardless of n, and the blocks
// are the unit the parallel path fans out.
const ExactBlockPatterns = 1 << exactBlockBits

// Exact enumerates all 2^n claim patterns (Eq. 3). The enumeration shares
// prefix products through recursion, so total work is O(2^n) rather than
// O(n·2^n).
//
// The patterns are enumerated in fixed blocks of ExactBlockPatterns; the
// context is checked, and any runctx hook on ctx fires under a lock with
// the cumulative count of completed blocks, once per block. With
// workers > 1 the blocks fan out over a bounded worker pool; each block
// sums its own false-positive/false-negative partials and the partials are
// reduced in block index order, so the Result is bit-for-bit identical for
// every workers value (0 or 1 runs serial). On cancellation the sums over
// the longest contiguous prefix of completed blocks are returned with the
// context's error — a deterministic partial state at a block checkpoint.
func Exact(ctx context.Context, c Column, workers int) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	n := c.N()
	if n > MaxExactSources {
		return Result{}, fmt.Errorf("%w: n=%d > %d", ErrTooManyExact, n, MaxExactSources)
	}
	if err := runctx.Err(ctx); err != nil {
		return Result{}, err
	}

	suffixBits := n
	if suffixBits > exactBlockBits {
		suffixBits = exactBlockBits
	}
	prefixBits := n - suffixBits
	numBlocks := 1 << prefixBits

	var (
		fpPart = make([]float64, numBlocks)
		fnPart = make([]float64, numBlocks)
		done   = make([]bool, numBlocks)

		mu         sync.Mutex
		blocksDone int
		hook       = runctx.HookFrom(ctx)
		//lint:allow seedsource wall-clock timing for the observability hook Elapsed field, not part of results
		start = time.Now()
	)
	poolErr := parallel.ForEachCtx(ctx, numBlocks, workers, func(b int) error {
		// The block's prefix pattern: bit i of the pattern is ON when the
		// corresponding bit of b is zero, so block 0 starts at the all-on
		// pattern — the same global enumeration order as the on-first
		// recursion below.
		w1, w0 := c.Z, 1-c.Z
		for i := 0; i < prefixBits; i++ {
			if (b>>(prefixBits-1-i))&1 == 0 {
				w1 *= c.P1[i]
				w0 *= c.P0[i]
			} else {
				w1 *= 1 - c.P1[i]
				w0 *= 1 - c.P0[i]
			}
		}
		var fp, fn float64
		var rec func(i int, w1, w0 float64)
		rec = func(i int, w1, w0 float64) {
			if i == n {
				// The optimal estimator picks the larger joint mass; the
				// loser is the conditional error contribution. Ties break
				// toward "true", matching the practical estimator's
				// decision rule.
				if w1 >= w0 {
					fp += w0
				} else {
					fn += w1
				}
				return
			}
			rec(i+1, w1*c.P1[i], w0*c.P0[i])
			rec(i+1, w1*(1-c.P1[i]), w0*(1-c.P0[i]))
		}
		rec(prefixBits, w1, w0)
		fpPart[b], fnPart[b] = fp, fn
		done[b] = true
		if suffixBits == exactBlockBits {
			// Full-size blocks report progress; a single sub-block run
			// (n < 15) finishes in microseconds and stays silent, matching
			// the historical per-2^15-patterns cadence.
			mu.Lock()
			blocksDone++
			hook.Emit(runctx.Iteration{
				Algorithm: "exact-bound", N: blocksDone,
				Samples: blocksDone * ExactBlockPatterns,
				Elapsed: time.Since(start),
			})
			mu.Unlock()
		}
		return nil
	})

	limit := numBlocks
	if poolErr != nil {
		// Longest contiguous prefix of completed blocks: the deterministic
		// "how far the enumeration got" state a serial run would also report.
		limit = 0
		// Bounded scan: limit strictly increases toward numBlocks.
		for limit < numBlocks && done[limit] {
			limit++
		}
	}
	var res Result
	for b := 0; b < limit; b++ {
		res.FalsePos += fpPart[b]
		res.FalseNeg += fnPart[b]
	}
	res.Err = res.FalsePos + res.FalseNeg
	if poolErr != nil {
		hook.Emit(runctx.Iteration{
			Algorithm: "exact-bound", N: limit,
			Samples: limit * (1 << suffixBits), Elapsed: time.Since(start),
			Done: true, Stopped: runctx.Reason(poolErr),
		})
		return res, poolErr
	}
	return res, nil
}
