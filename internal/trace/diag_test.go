package trace

import (
	"testing"

	"depsense/internal/runctx"
)

// iter builds an EM-style iteration record carrying a log-likelihood.
func iter(alg string, n int, ll float64) runctx.Iteration {
	return runctx.Iteration{Algorithm: alg, N: n, LogLikelihood: ll, HasLL: true}
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

// TestDiagnoseJumpDecreaseNotCounted: a log-likelihood drop into a jump
// event (an extrapolated point, or the restart after a rejected one) is not
// an EM step and is not a decrease; a drop into the plain step after it
// still is.
func TestDiagnoseJumpDecreaseNotCounted(t *testing.T) {
	jump := func(n int, ll float64) runctx.Iteration {
		it := iter("EM-Social", n, ll)
		it.Jump = true
		return it
	}
	d := finishWith(t,
		iter("EM-Social", 1, -10),
		iter("EM-Social", 2, -8),
		jump(3, -12), // the extrapolation overshot
		jump(4, -7.5),
		iter("EM-Social", 5, -7),
	).Diagnostics.Runs[0]
	if !d.Monotone || d.LLDecreases != 0 || d.Jumps != 2 {
		t.Fatalf("jump drop counted as a decrease: %+v", d)
	}
	d = finishWith(t,
		iter("EM-Social", 1, -10),
		jump(2, -6),
		iter("EM-Social", 3, -6.5), // a plain step lost 0.5
	).Diagnostics.Runs[0]
	if d.Monotone || d.LLDecreases != 1 || d.MaxDecrease != 0.5 || d.Jumps != 1 {
		t.Fatalf("plain-step decrease after a jump not flagged: %+v", d)
	}
}
