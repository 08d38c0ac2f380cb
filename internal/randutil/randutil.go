// Package randutil provides small deterministic randomness helpers shared by
// the synthetic data generators, the Gibbs sampler, and the experiment
// harness. Every consumer takes an explicit *rand.Rand so that experiments
// are reproducible from a single seed.
package randutil

import (
	"math"
	"math/rand"
	"sort"
)

// New returns a rand.Rand seeded deterministically.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Uniform draws a value uniformly from [lo, hi). It panics if hi < lo, which
// always indicates a programming error in experiment configuration.
func Uniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi < lo {
		panic("randutil: Uniform called with hi < lo")
	}
	if hi == lo {
		return lo
	}
	return lo + rng.Float64()*(hi-lo)
}

// UniformInt draws an integer uniformly from [lo, hi] inclusive.
func UniformInt(rng *rand.Rand, lo, hi int) int {
	if hi < lo {
		panic("randutil: UniformInt called with hi < lo")
	}
	return lo + rng.Intn(hi-lo+1)
}

// Bernoulli returns true with probability p.
func Bernoulli(rng *rand.Rand, p float64) bool {
	return rng.Float64() < p
}

// Pick returns a uniformly random element of xs. It panics on an empty
// slice; callers must guard against empty candidate sets.
func Pick(rng *rand.Rand, xs []int) int {
	if len(xs) == 0 {
		panic("randutil: Pick from empty slice")
	}
	return xs[rng.Intn(len(xs))]
}

// Shuffle permutes xs in place.
func Shuffle(rng *rand.Rand, xs []int) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Perm returns a random permutation of 0..n-1.
func Perm(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

// SampleWithoutReplacement returns k distinct integers drawn uniformly from
// [0, n). If k >= n it returns all of 0..n-1 in random order.
func SampleWithoutReplacement(rng *rand.Rand, n, k int) []int {
	if k >= n {
		return rng.Perm(n)
	}
	// Partial Fisher-Yates over an index map keeps this O(k) in memory for
	// the common small-k case used by the bound column sampler.
	chosen := make([]int, 0, k)
	swapped := make(map[int]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		vj, ok := swapped[j]
		if !ok {
			vj = j
		}
		vi, ok := swapped[i]
		if !ok {
			vi = i
		}
		swapped[j] = vi
		chosen = append(chosen, vj)
	}
	return chosen
}

// ZipfPicker samples indices in [0, n) with P(i) proportional to 1/(i+1)^s.
type ZipfPicker struct {
	cdf []float64
}

// NewZipfPicker builds the cumulative distribution once for repeated draws.
func NewZipfPicker(n int, s float64) *ZipfPicker {
	if n <= 0 {
		panic("randutil: ZipfPicker needs n > 0")
	}
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &ZipfPicker{cdf: cdf}
}

// Pick draws one index.
func (z *ZipfPicker) Pick(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}
