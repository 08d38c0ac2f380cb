package trace

import (
	"math"

	"depsense/internal/mapsort"
)

// Diagnostic thresholds.
const (
	// RHatWarnThreshold is the classic potential-scale-reduction warning
	// level: split-chain R-hat above 1.1 means the chains disagree more
	// between themselves than within themselves — the Gibbs estimate has
	// not mixed and the bound it feeds should not be trusted yet.
	RHatWarnThreshold = 1.1
	// llDecreaseTol absorbs floating-point jitter when checking EM
	// log-likelihood monotonicity: a step counts as a decrease only when it
	// loses more than this much absolute log-likelihood.
	llDecreaseTol = 1e-9
	// plateauRelTol declares a plateau when an iteration improves the
	// log-likelihood by less than this fraction of the trajectory's total
	// improvement.
	plateauRelTol = 1e-3
	// rhatMax caps the reported R-hat so degenerate trajectories (zero
	// within-chain variance with nonzero between-chain variance — frozen
	// chains at different values) stay JSON-encodable.
	rhatMax = 1e6
)

// Diagnostics is the convergence analysis attached to a finished trace.
// Every field is deterministic: it is computed from the deterministic event
// fields only.
type Diagnostics struct {
	Runs []RunDiag `json:"runs,omitempty"`
}

// RunDiag is one algorithm run's convergence verdicts.
type RunDiag struct {
	Algorithm  string `json:"algorithm"`
	Chains     int    `json:"chains"`
	Iterations int    `json:"iterations"`
	Stopped    string `json:"stopped,omitempty"`

	// Log-likelihood trajectory (EM family), present when HasLL.
	HasLL   bool    `json:"hasLL,omitempty"`
	LLFirst float64 `json:"llFirst,omitempty"`
	LLLast  float64 `json:"llLast,omitempty"`
	// LLDecreases counts iterations that LOST log-likelihood beyond
	// tolerance — EM guarantees monotone ascent, so any decrease flags a
	// numerical or modeling problem. Monotone is its negation.
	LLDecreases int     `json:"llDecreases,omitempty"`
	MaxDecrease float64 `json:"maxDecrease,omitempty"`
	Monotone    bool    `json:"monotone,omitempty"`
	// PlateauAt is the 1-based iteration from which every later step
	// improved by less than plateauRelTol of the total improvement; 0 when
	// the run never plateaued. A plateau well before the final iteration of
	// an iteration-capped run means the cap wasted work; a cap with no
	// plateau means the run genuinely needed more budget.
	PlateauAt int `json:"plateauAt,omitempty"`

	// Split-chain R-hat over per-chain Value trajectories (Gibbs sweep
	// checkpoints), present when HasRHat. Mixed reports R-hat at or under
	// RHatWarnThreshold.
	HasRHat bool    `json:"hasRHat,omitempty"`
	RHat    float64 `json:"rhat,omitempty"`
	Mixed   bool    `json:"mixed,omitempty"`
	// RHatStatus explains an ABSENT R-hat for runs that did report Value
	// trajectories: RHatInsufficientChains when only one chain reported
	// values (a single chain cannot disagree with itself, so "mixed" would
	// be vacuous), RHatInsufficientCheckpoints when the chains are too
	// short to split (each half-chain needs two points). Empty when HasRHat
	// is set or when the run reported no values at all (non-Gibbs runs).
	RHatStatus string `json:"rhatStatus,omitempty"`
}

// RHatStatus values: why a Value-reporting run has no R-hat.
const (
	// RHatInsufficientChains marks a single-chain Gibbs run — the
	// statistic needs at least two chains.
	RHatInsufficientChains = "insufficient-chains"
	// RHatInsufficientCheckpoints marks chains with fewer than four common
	// checkpoints — too short to split into meaningful halves.
	RHatInsufficientCheckpoints = "insufficient-checkpoints"
)

// Diagnose computes the convergence diagnostics for a finished trace. It is
// called by Builder.Finish; exposed so offline tools (ssaudit) can
// re-diagnose traces loaded from JSONL.
func Diagnose(t *Trace) *Diagnostics {
	if len(t.Runs) == 0 {
		return nil
	}
	d := &Diagnostics{}
	for _, run := range t.Runs {
		d.Runs = append(d.Runs, diagnoseRun(run))
	}
	return d
}

func diagnoseRun(run *Run) RunDiag {
	rd := RunDiag{
		Algorithm:  run.Algorithm,
		Chains:     run.Chains(),
		Iterations: run.Iterations(),
		Stopped:    run.Stopped(),
	}
	diagnoseLL(run, &rd)
	values := ChainValues(run)
	if rhat, ok := SplitRHat(values); ok {
		rd.HasRHat = true
		rd.RHat = rhat
		rd.Mixed = rhat <= RHatWarnThreshold
	} else if len(values) > 0 {
		// The run reported Value trajectories but they cannot support the
		// statistic; say why instead of leaving a silently-absent R-hat
		// that readers mistake for "nothing to diagnose".
		if len(values) < 2 {
			rd.RHatStatus = RHatInsufficientChains
		} else {
			rd.RHatStatus = RHatInsufficientCheckpoints
		}
	}
	return rd
}

// diagnoseLL checks the log-likelihood trajectory of the run's first chain
// (chain 0 — the one a serial run would have produced) for monotone ascent
// and plateau onset.
func diagnoseLL(run *Run, rd *RunDiag) {
	var ll []float64
	for i := range run.Events {
		e := &run.Events[i]
		if e.Chain == 0 && e.HasLL {
			ll = append(ll, e.LogLikelihood)
		}
	}
	if len(ll) == 0 {
		return
	}
	rd.HasLL = true
	rd.LLFirst, rd.LLLast = ll[0], ll[len(ll)-1]
	rd.Monotone = true
	for i := 1; i < len(ll); i++ {
		if drop := ll[i-1] - ll[i]; drop > llDecreaseTol {
			rd.LLDecreases++
			rd.Monotone = false
			if drop > rd.MaxDecrease {
				rd.MaxDecrease = drop
			}
		}
	}
	// Plateau onset: the earliest iteration after which no step improves by
	// more than plateauRelTol of the trajectory's total improvement.
	total := math.Abs(rd.LLLast - rd.LLFirst)
	if total <= 0 || len(ll) < 3 {
		return
	}
	onset := len(ll)
	for i := len(ll) - 1; i >= 1; i-- {
		if math.Abs(ll[i]-ll[i-1]) > plateauRelTol*total {
			break
		}
		onset = i
	}
	if onset < len(ll) {
		rd.PlateauAt = onset
	}
}

// ChainValues extracts the per-chain Value trajectories of a run, in chain
// index order — the input SplitRHat wants. Chains that never reported a
// Value are omitted.
func ChainValues(run *Run) [][]float64 {
	byChain := map[int][]float64{}
	for i := range run.Events {
		e := &run.Events[i]
		if e.HasValue {
			byChain[e.Chain] = append(byChain[e.Chain], e.Value)
		}
	}
	chains := mapsort.Keys(byChain)
	out := make([][]float64, 0, len(chains))
	for _, c := range chains {
		out = append(out, byChain[c])
	}
	return out
}

// SplitRHat computes the split-chain potential scale reduction factor
// (Gelman-Rubin R-hat) over per-chain scalar trajectories: each chain is
// split in half, and R-hat compares the variance between the 2K half-chains
// against the variance within them,
//
//	R̂ = sqrt( ((n-1)/n · W + B/n) / W )
//
// with B the between-chain and W the within-chain variance over the common
// trailing length n. Values near 1 mean the chains explore the same
// distribution; above RHatWarnThreshold (1.1) they have not mixed.
// Splitting catches the failure a plain R-hat misses: chains that drift in
// the same direction but have not reached stationarity disagree with their
// own second half.
//
// ok is false when the input cannot support the statistic: fewer than two
// chains, or a common length under four (each half needs two points).
// Trailing points beyond the shortest chain are dropped so interrupted
// chains still diagnose. The result is capped at 1e6 so frozen chains stuck
// at different values (zero within-chain variance) stay representable.
func SplitRHat(chains [][]float64) (rhat float64, ok bool) {
	if len(chains) < 2 {
		return 0, false
	}
	n := len(chains[0])
	for _, c := range chains[1:] {
		if len(c) < n {
			n = len(c)
		}
	}
	half := n / 2
	if half < 2 {
		return 0, false
	}
	// Split each chain's last 2·half values into two halves.
	halves := make([][]float64, 0, 2*len(chains))
	for _, c := range chains {
		tail := c[len(c)-2*half:]
		halves = append(halves, tail[:half], tail[half:])
	}
	m := len(halves)
	means := make([]float64, m)
	grand := 0.0
	for i, h := range halves {
		s := 0.0
		for _, v := range h {
			s += v
		}
		means[i] = s / float64(half)
		grand += means[i]
	}
	grand /= float64(m)
	var between, within float64
	for i, h := range halves {
		d := means[i] - grand
		between += d * d
		var s2 float64
		for _, v := range h {
			dv := v - means[i]
			s2 += dv * dv
		}
		within += s2 / float64(half-1)
	}
	between *= float64(half) / float64(m-1)
	within /= float64(m)
	if within == 0 {
		if between == 0 {
			return 1, true // identical constant chains: perfectly mixed
		}
		return rhatMax, true // frozen chains at different values: not mixed
	}
	v := (float64(half-1)/float64(half))*within + between/float64(half)
	rhat = math.Sqrt(v / within)
	if rhat > rhatMax {
		rhat = rhatMax
	}
	return rhat, true
}
