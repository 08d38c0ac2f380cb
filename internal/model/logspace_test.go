package model

import (
	"math"
	"testing"
)

func TestSafeLogMatchesLogInRange(t *testing.T) {
	for _, p := range []float64{ProbEpsilon, 0.01, 0.5, 0.9, 1} {
		if got, want := SafeLog(p), math.Log(p); got != want {
			t.Errorf("SafeLog(%g) = %g, want %g", p, got, want)
		}
	}
}

func TestSafeLogClampsDegenerate(t *testing.T) {
	floor := math.Log(ProbEpsilon)
	for _, p := range []float64{0, -1, ProbEpsilon / 2} {
		got := SafeLog(p)
		if math.IsInf(got, -1) || math.IsNaN(got) {
			t.Fatalf("SafeLog(%g) = %g; the clamp floor must keep it finite", p, got)
		}
		if got != floor {
			t.Errorf("SafeLog(%g) = %g, want clamp floor %g", p, got, floor)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	cases := []struct{ a, b float64 }{
		{math.Log(0.3), math.Log(0.7)},
		{math.Log(1e-12), math.Log(1)},
		{-1000, -1001}, // both exp() underflow raw; stable in log-space
	}
	for _, c := range cases {
		got := LogSumExp(c.a, c.b)
		want := math.Max(c.a, c.b) + math.Log1p(math.Exp(math.Min(c.a, c.b)-math.Max(c.a, c.b)))
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("LogSumExp(%g, %g) = %g, want %g", c.a, c.b, got, want)
		}
	}
	// Symmetry and the -Inf identity element.
	if LogSumExp(-2, -5) != LogSumExp(-5, -2) {
		t.Error("LogSumExp is not symmetric")
	}
	if got := LogSumExp(math.Inf(-1), -3); got != -3 {
		t.Errorf("LogSumExp(-Inf, -3) = %g, want -3", got)
	}
	if got := LogSumExp(math.Inf(-1), math.Inf(-1)); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(-Inf, -Inf) = %g, want -Inf", got)
	}
	// log(0.3+0.7) == log(1) == 0.
	if got := LogSumExp(math.Log(0.3), math.Log(0.7)); math.Abs(got) > 1e-12 {
		t.Errorf("LogSumExp(log .3, log .7) = %g, want 0", got)
	}
}

// TestLogProdSurvivesUnderflow is the motivating case for the whole file: a
// raw chain of 2000 factors of 0.5 underflows float64 to exactly 0, while
// the log-space product keeps the magnitude.
func TestLogProdSurvivesUnderflow(t *testing.T) {
	raw := 1.0
	ps := make([]float64, 2000)
	for i := range ps {
		ps[i] = 0.5
		raw *= 0.5
	}
	if raw != 0 {
		t.Fatalf("expected the raw product to underflow to 0, got %g", raw)
	}
	got := LogProd(ps...)
	want := 2000 * math.Log(0.5)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("LogProd = %g, want %g", got, want)
	}
	if math.IsInf(got, -1) || math.IsNaN(got) {
		t.Errorf("LogProd underflowed: %g", got)
	}
}
