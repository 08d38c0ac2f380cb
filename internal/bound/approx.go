package bound

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"depsense/internal/gibbs"
	"depsense/internal/randutil"
	"depsense/internal/runctx"
)

// DefaultGibbsSweeps is the Gibbs chain's sweep budget when a caller
// passes a non-positive one.
const DefaultGibbsSweeps = 20000

// The chain's stop rule ("while Err not convergent" in the paper's
// pseudocode): every approxCheckEvery sweeps it compares the running
// estimate with the previous checkpoint's and stops once the two differ by
// less than approxTol.
const (
	approxCheckEvery = 500
	approxTol        = 1e-4
)

// approxTally is the raw Monte Carlo accumulator of the Gibbs chain.
type approxTally struct {
	sumErr, sumSq float64
	sumFP, sumFN  float64
	samples       int
}

func (t approxTally) result() Result {
	fs := float64(t.samples)
	res := Result{
		Err:      t.sumErr / fs,
		FalsePos: t.sumFP / fs,
		FalseNeg: t.sumFN / fs,
		Sweeps:   t.samples,
	}
	variance := t.sumSq/fs - res.Err*res.Err
	if variance > 0 {
		// Gibbs samples are autocorrelated; this plain-iid standard error
		// understates uncertainty but is still a useful scale indicator.
		res.StdErr = math.Sqrt(variance / fs)
	}
	return res
}

// ApproxContext estimates the error bound by Gibbs sampling claim patterns
// from their marginal P(SC_j) = z·P(SC_j|C=1) + (1-z)·P(SC_j|C=0)
// (Algorithm 1).
//
// For a sampled pattern s with joint masses w1 = z·P(s|C=1) and
// w0 = (1-z)·P(s|C=0), the quantity min(w1,w0)/(w1+w0) is the conditional
// Bayes error P^opt(error|s), and its expectation over s ~ P is exactly the
// bound of Eq. (3). The chain therefore averages min/(w1+w0) over samples —
// the measure-weighted form of the paper's ErrPart/Total ratio — which is
// unbiased at any n, including the large-n regimes where every individual
// pattern has vanishing probability.
//
// The chain runs up to maxSweeps sweeps (DefaultGibbsSweeps when
// maxSweeps is not positive) and stops early once its running estimate
// settles. Cancellation is checked once per sweep, so a cancel returns
// within one O(n) sweep; on cancellation the partial Monte Carlo averages
// over the samples drawn so far are returned together with the context's
// error. Any runctx hook on ctx fires at every convergence checkpoint
// (every 500 sweeps) with the cumulative sample count. A nil rng falls back
// to a fixed seed.
func ApproxContext(ctx context.Context, c Column, maxSweeps int, rng *rand.Rand) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if maxSweeps <= 0 {
		maxSweeps = DefaultGibbsSweeps
	}
	if rng == nil {
		rng = randutil.New(1)
	}
	t, err := runApproxChain(ctx, c, maxSweeps, rng)
	if t.samples == 0 {
		return Result{}, err
	}
	return t.result(), err
}

// runApproxChain runs the Gibbs chain for up to maxSweeps accumulation
// sweeps and returns its raw tallies. The returned error is a chain-build
// failure or the context's cancellation error; on cancellation the tallies
// over the sweeps completed so far are still returned.
func runApproxChain(ctx context.Context, c Column, maxSweeps int, rng *rand.Rand) (approxTally, error) {
	n := c.N()
	pOn := [2][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		pOn[0][i] = clampOpen(c.P1[i])
		pOn[1][i] = clampOpen(c.P0[i])
	}
	z := clampOpen(c.Z)
	chain, err := gibbs.NewProductMixtureChain([2]float64{z, 1 - z}, pOn, rng)
	if err != nil {
		return approxTally{}, fmt.Errorf("bound: build chain: %w", err)
	}

	hook := runctx.HookFrom(ctx)
	start := time.Now() //lint:allow seedsource wall-clock timing for the observability hook Elapsed field, not part of results

	var (
		t            approxTally
		checkpoints  int
		lastEstimate = math.Inf(1)
		lastSumErr   float64 // sumErr at the previous checkpoint
		lastSamples  int     // samples at the previous checkpoint
		stop         error
	)
	for s := 0; s < maxSweeps; s++ {
		if stop = runctx.Err(ctx); stop != nil {
			break
		}
		chain.Sweep()
		lw := chain.LogJointWeights()
		// r = min(w1,w0)/(w1+w0) computed stably in log space.
		l1, l0 := lw[0], lw[1]
		diff := l1 - l0 // log(w1/w0)
		var r float64
		var isFP bool
		if diff >= 0 {
			// decide true; error mass is w0: r = 1/(1+w1/w0)
			r = 1 / (1 + math.Exp(diff))
			isFP = true
		} else {
			r = 1 / (1 + math.Exp(-diff))
		}
		t.sumErr += r
		t.sumSq += r * r
		if isFP {
			t.sumFP += r
		} else {
			t.sumFN += r
		}
		t.samples++

		if t.samples%approxCheckEvery == 0 {
			est := t.sumErr / float64(t.samples)
			checkpoints++
			converged := math.Abs(est-lastEstimate) < approxTol
			// The hook's Value is the checkpoint's BATCH mean — the error
			// average over just this checkpoint's approxCheckEvery sweeps —
			// not the cumulative running estimate: batch means are near-iid
			// per-checkpoint samples of the chain's output, where running
			// means carry a deterministic converging trend.
			batch := (t.sumErr - lastSumErr) / float64(t.samples-lastSamples)
			lastSumErr, lastSamples = t.sumErr, t.samples
			it := runctx.Iteration{
				Algorithm: "gibbs-bound", N: checkpoints,
				Samples: t.samples, Value: batch, HasValue: true,
				Elapsed: time.Since(start), Done: converged,
			}
			if converged {
				it.Stopped = runctx.StopConverged
			}
			hook.Emit(it)
			if converged {
				break
			}
			lastEstimate = est
		}
	}
	if stop != nil {
		it := runctx.Iteration{
			Algorithm: "gibbs-bound", N: checkpoints + 1,
			Samples: t.samples,
			Elapsed: time.Since(start), Done: true, Stopped: runctx.Reason(stop),
		}
		if t.samples > lastSamples {
			// Partial batch since the last checkpoint.
			it.Value = (t.sumErr - lastSumErr) / float64(t.samples-lastSamples)
			it.HasValue = true
		}
		hook.Emit(it)
	}
	return t, stop
}

// clampOpen forces p strictly inside (0,1) as the mixture chain requires.
func clampOpen(p float64) float64 {
	const eps = 1e-9
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}
