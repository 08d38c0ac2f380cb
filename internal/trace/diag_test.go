package trace

import (
	"math"
	"testing"

	"depsense/internal/runctx"
)

// iter builds an EM-style iteration record carrying a log-likelihood.
func iter(alg string, n int, ll float64) runctx.Iteration {
	return runctx.Iteration{Algorithm: alg, N: n, LogLikelihood: ll, HasLL: true}
}

// chainIter builds a Gibbs-style checkpoint carrying a Value on a chain.
func chainIter(alg string, chain, n int, v float64) runctx.Iteration {
	return runctx.Iteration{Algorithm: alg, N: n, Chain: chain, Value: v, HasValue: true}
}

func finishWith(t *testing.T, its ...runctx.Iteration) *Trace {
	t.Helper()
	b := NewBuilder("diag", "test", testClock())
	hook := b.Hook()
	for _, it := range its {
		hook(it)
	}
	return b.Finish(StatusOK, "")
}

func TestSplitRHatDegenerateInputs(t *testing.T) {
	if _, ok := SplitRHat(nil); ok {
		t.Error("nil chains accepted")
	}
	if _, ok := SplitRHat([][]float64{{1, 2, 3, 4}}); ok {
		t.Error("single chain accepted")
	}
	// Common length 3 → half 1 < 2: not computable.
	if _, ok := SplitRHat([][]float64{{1, 2, 3, 4}, {1, 2, 3}}); ok {
		t.Error("half-chain of one point accepted")
	}
	// Identical constant chains: zero variance everywhere → perfectly mixed.
	if r, ok := SplitRHat([][]float64{{2, 2, 2, 2}, {2, 2, 2, 2}}); !ok || r != 1 {
		t.Errorf("constant identical chains: rhat=%v ok=%v, want 1 true", r, ok)
	}
	// Frozen chains at different values: infinitely bad mixing, capped.
	if r, ok := SplitRHat([][]float64{{1, 1, 1, 1}, {2, 2, 2, 2}}); !ok || r != 1e6 {
		t.Errorf("frozen distinct chains: rhat=%v ok=%v, want 1e6 true", r, ok)
	}
}

func TestSplitRHatMixedVsNot(t *testing.T) {
	// Two chains sampling the same stationary distribution: interleaved
	// deterministic pseudo-noise around a common mean.
	n := 64
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = 0.5 + 0.01*math.Sin(float64(i)*1.7)
		b[i] = 0.5 + 0.01*math.Sin(float64(i)*1.7+2.1)
	}
	r, ok := SplitRHat([][]float64{a, b})
	if !ok || r > RHatWarnThreshold {
		t.Fatalf("well-mixed chains: rhat=%v ok=%v, want <= %v", r, ok, RHatWarnThreshold)
	}

	// Same noise, but the chains orbit different means: between-chain
	// variance dwarfs within-chain variance.
	for i := 0; i < n; i++ {
		b[i] += 1.0
	}
	r, ok = SplitRHat([][]float64{a, b})
	if !ok || r <= RHatWarnThreshold {
		t.Fatalf("non-mixing chains: rhat=%v ok=%v, want > %v", r, ok, RHatWarnThreshold)
	}

	// A drifting chain disagrees with itself — the failure split-chain R-hat
	// exists to catch: both chains trend upward together, plain between-chain
	// comparison would pass, the split must not.
	for i := 0; i < n; i++ {
		a[i] = float64(i) * 0.1
		b[i] = float64(i)*0.1 + 0.001*math.Sin(float64(i))
	}
	r, ok = SplitRHat([][]float64{a, b})
	if !ok || r <= RHatWarnThreshold {
		t.Fatalf("jointly drifting chains: rhat=%v, want > %v", r, RHatWarnThreshold)
	}
}

func TestSplitRHatTruncatesToCommonTail(t *testing.T) {
	// The longer chain's early burn-in garbage must be ignored: only the
	// trailing common length counts.
	long := append(make([]float64, 0, 40), 1e9, -1e9, 1e9, -1e9)
	short := make([]float64, 0, 36)
	for i := 0; i < 36; i++ {
		long = append(long, 0.5)
		short = append(short, 0.5)
	}
	r, ok := SplitRHat([][]float64{long, short})
	if !ok || r != 1 {
		t.Fatalf("tail truncation: rhat=%v ok=%v, want 1 true", r, ok)
	}
}

func TestDiagnoseMonotoneAndPlateau(t *testing.T) {
	// A textbook EM trajectory: fast early gains, then a long flat tail.
	its := []runctx.Iteration{}
	ll := []float64{-100, -50, -20, -10, -9.999, -9.9985, -9.998}
	for i, v := range ll {
		its = append(its, iter("EM-Ext", i+1, v))
	}
	tr := finishWith(t, its...)
	if tr.Diagnostics == nil || len(tr.Diagnostics.Runs) != 1 {
		t.Fatalf("diagnostics missing: %+v", tr.Diagnostics)
	}
	d := tr.Diagnostics.Runs[0]
	if !d.HasLL || !d.Monotone || d.LLDecreases != 0 {
		t.Fatalf("monotone trajectory misdiagnosed: %+v", d)
	}
	if d.LLFirst != -100 || d.LLLast != -9.998 {
		t.Fatalf("endpoints wrong: %+v", d)
	}
	// Total improvement 90.002; every step from index 4 on improves by less
	// than 0.09: plateau onset at 1-based iteration 4.
	if d.PlateauAt != 4 {
		t.Fatalf("PlateauAt = %d, want 4", d.PlateauAt)
	}
}

func TestDiagnoseLLDecrease(t *testing.T) {
	tr := finishWith(t,
		iter("EM-Ext", 1, -10),
		iter("EM-Ext", 2, -8),
		iter("EM-Ext", 3, -8.5), // lost 0.5 — EM must never do this
		iter("EM-Ext", 4, -7),
	)
	d := tr.Diagnostics.Runs[0]
	if d.Monotone || d.LLDecreases != 1 || d.MaxDecrease != 0.5 {
		t.Fatalf("decrease not flagged: %+v", d)
	}
	// A sub-tolerance wobble is not a decrease.
	tr = finishWith(t,
		iter("EM-Ext", 1, -10),
		iter("EM-Ext", 2, -10+1e-12),
		iter("EM-Ext", 3, -10),
	)
	if d := tr.Diagnostics.Runs[0]; !d.Monotone {
		t.Fatalf("floating-point jitter flagged as a decrease: %+v", d)
	}
}

func TestDiagnoseRHatFromChainValues(t *testing.T) {
	var its []runctx.Iteration
	for c := 0; c < 2; c++ {
		for n := 1; n <= 8; n++ {
			v := 0.3 + 0.001*float64(n%3)
			if c == 1 {
				v += 0.5 // chains frozen apart: not mixed
			}
			its = append(its, chainIter("gibbs-bound", c, n, v))
		}
	}
	tr := finishWith(t, its...)
	d := tr.Diagnostics.Runs[0]
	if !d.HasRHat || d.Mixed || d.RHat <= RHatWarnThreshold {
		t.Fatalf("non-mixing chains not flagged: %+v", d)
	}

	// Without Value-carrying events there is no R-hat.
	tr = finishWith(t, iter("EM-Ext", 1, -5), iter("EM-Ext", 2, -4))
	if tr.Diagnostics.Runs[0].HasRHat {
		t.Fatal("R-hat computed without Value trajectories")
	}
}

// TestDiagnoseRHatInsufficient: a Value-reporting run that cannot support
// split R-hat must say WHY instead of silently omitting the statistic — a
// single-chain Gibbs run used to look identical to "nothing to diagnose",
// and readers took the absent R-hat for a clean bill of mixing health.
func TestDiagnoseRHatInsufficient(t *testing.T) {
	// One chain, plenty of checkpoints: insufficient chains.
	var its []runctx.Iteration
	for n := 1; n <= 8; n++ {
		its = append(its, chainIter("gibbs-bound", 0, n, 0.3+0.01*float64(n%3)))
	}
	d := finishWith(t, its...).Diagnostics.Runs[0]
	if d.HasRHat {
		t.Fatalf("single chain produced an R-hat: %+v", d)
	}
	if d.RHatStatus != RHatInsufficientChains {
		t.Fatalf("single chain RHatStatus = %q, want %q", d.RHatStatus, RHatInsufficientChains)
	}

	// Two chains, three checkpoints each: halves of one point, too short.
	its = nil
	for c := 0; c < 2; c++ {
		for n := 1; n <= 3; n++ {
			its = append(its, chainIter("gibbs-bound", c, n, 0.3+0.1*float64(c)))
		}
	}
	d = finishWith(t, its...).Diagnostics.Runs[0]
	if d.HasRHat {
		t.Fatalf("three-checkpoint chains produced an R-hat: %+v", d)
	}
	if d.RHatStatus != RHatInsufficientCheckpoints {
		t.Fatalf("short chains RHatStatus = %q, want %q", d.RHatStatus, RHatInsufficientCheckpoints)
	}

	// No Value trajectories at all (EM runs): no status — nothing was
	// expected to produce an R-hat.
	d = finishWith(t, iter("EM-Ext", 1, -5), iter("EM-Ext", 2, -4)).Diagnostics.Runs[0]
	if d.HasRHat || d.RHatStatus != "" {
		t.Fatalf("LL-only run got RHatStatus %q, want empty", d.RHatStatus)
	}

	// A healthy multi-chain run carries an R-hat and no status.
	its = nil
	for c := 0; c < 2; c++ {
		for n := 1; n <= 8; n++ {
			its = append(its, chainIter("gibbs-bound", c, n, 0.3+0.001*float64((n+c)%3)))
		}
	}
	d = finishWith(t, its...).Diagnostics.Runs[0]
	if !d.HasRHat || d.RHatStatus != "" {
		t.Fatalf("healthy run: HasRHat=%v RHatStatus=%q, want true and empty", d.HasRHat, d.RHatStatus)
	}
}
