// Fixture analyzed under depsense/internal/model, a numeric zone: raw
// probability products of length >= 4 and exact 0/1 comparisons fire.
package fixture

// Params mimics the paper's per-source channel.
type Params struct {
	A, B, F, G float64
}

// Likelihood chains four probability-named factors in raw space: the
// per-source product of Eqs. 9-14 that the E-step keeps in log-space.
func Likelihood(p Params, z float64) float64 {
	return p.A * p.B * p.F * z // want `raw-space product of 4 probability factors`
}

// Complements count as probabilities too.
func Complement(a, b, f, g float64) float64 {
	return (1 - a) * (1 - b) * (1 - f) * (1 - g) // want `raw-space product of 4 probability factors`
}

// Indexed per-source parameters fire as well.
func Indexed(a, b []float64) float64 {
	return a[0] * a[1] * b[0] * b[1] // want `raw-space product of 4 probability factors`
}

// Short chains stay below the underflow heuristic.
func Short(p Params) float64 {
	return p.A * p.B * p.F
}

// NonProbability names do not fire regardless of length.
func NonProbability(dx, dy, du, dv float64) float64 {
	return dx * dy * du * dv
}

// Integer products never fire.
func IntProduct(a, b, f, g int) int {
	return a * b * f * g
}

// logLikelihood is a log-space helper: the raw product here is the
// conversion point and is exempt by function name.
func logLikelihood(a, b, f, g float64) float64 {
	return a * b * f * g
}

// Justified carries an allow.
func Justified(a, b, f, g float64) float64 {
	return a * b * f * g //lint:allow probexpr tiny fixed-size product with magnitudes near 1
}

// ExactCompare tests the 0/1 literal rule.
func ExactCompare(p float64, count int) bool {
	if p == 0 { // want `probability compared against exact 0`
		return true
	}
	if p != 1.0 { // want `probability compared against exact 1`
		return false
	}
	if 0 == p { // want `probability compared against exact 0`
		return true
	}
	// Integer comparisons are fine.
	if count == 0 {
		return false
	}
	// Epsilon-aware comparison is the sanctioned pattern.
	const eps = 1e-6
	if p < eps || p > 1-eps {
		return true
	}
	//lint:allow probexpr sentinel: this probability is set to exactly -1 upstream when absent
	return p == 1
}
