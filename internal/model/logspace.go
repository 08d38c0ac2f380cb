package model

import "math"

// Log-space helpers for the posterior computations of Eqs. 9-14. A raw
// product of per-source emission probabilities underflows float64 once a
// few hundred factors of magnitude ~0.5 are chained (0.5^1075 == 0), so
// every likelihood accumulation in this repository sums logs and resolves
// normalization with LogSumExp. The probexpr analyzer points raw-space
// product chains here.

// SafeLog returns log(p) for a probability, mapping p <= 0 to the log of
// the clamp floor instead of -Inf so that one degenerate factor cannot
// poison a whole log-space accumulation. Probabilities that went through
// ClampProb never hit the fallback.
func SafeLog(p float64) float64 {
	if p < ProbEpsilon {
		return logProbEpsilon
	}
	return math.Log(p)
}

var logProbEpsilon = math.Log(ProbEpsilon)

// LogSumExp returns log(exp(a)+exp(b)) computed stably; it is how a
// log-space accumulation resolves the (true, false) hypothesis
// normalization without leaving log-space.
func LogSumExp(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(a, -1) {
		return a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// LogProd returns the log of the product of the given probabilities,
// accumulated as a sum of SafeLogs. It is the drop-in replacement for a
// raw p1*p2*...*pk chain.
func LogProd(ps ...float64) float64 {
	sum := 0.0
	for _, p := range ps {
		sum += SafeLog(p)
	}
	return sum
}
