// Package gibbs implements the Gibbs chain of Algorithm 1.
//
// The error bound of Section III-B needs samples of claim patterns
// SC_j ∈ {0,1}^n from the marginal P(SC_j) = Σ_c P(C_j=c)·P(SC_j|C_j=c),
// a two-component mixture of product-of-Bernoulli distributions. The
// ProductMixtureChain samples from that mixture with O(1) work per bit
// update, by maintaining the running product weights of both components in
// log space.
//
// The chain's oracles live in the tests: refChain (chainequiv_test.go)
// replays the pre-flattening implementation sweep for sweep, and
// bruteMixture (gibbs_test.go) recomputes every full conditional from
// scratch.
package gibbs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ProductMixtureChain samples x ∈ {0,1}^n from
//
//	P(x) = Σ_{h=0,1} prior[h] · Π_i pOn[h][i]^x_i (1-pOn[h][i])^(1-x_i)
//
// maintaining per-component running log-products so one bit update costs
// O(1) instead of O(n). Numerical drift from incremental updates is bounded
// by recomputing the products from scratch every refreshEvery sweeps.
// The per-bit tables are stored bit-major and flattened — entry (k, i)
// lives at [i*2 + k] — so one bit update reads both components from a
// single cache line, and exp(logOn)/exp(logOff) are precomputed at
// construction instead of re-exponentiated on every visit (the same
// float64 values, so sampling paths are bit-identical to the
// per-bit-Exp formulation the differential test replays).
type ProductMixtureChain struct {
	n        int
	logOn    []float64 // [i*2 + k] log pOn[k][i]
	logOff   []float64 // [i*2 + k] log (1-pOn[k][i])
	expOn    []float64 // [i*2 + k] pOn as exp(logOn), the conditional's numerator factor
	expOff   []float64 // [i*2 + k] exp(logOff)
	logPrior [2]float64
	state    []bool
	logW     [2]float64 // logPrior[h] + Σ_i log p_h(x_i)
	rng      *rand.Rand
	sweeps   int
}

// refreshEvery bounds floating-point drift in the incremental log-weights.
const refreshEvery = 256

// ErrBadMixture is returned for structurally invalid mixture parameters.
var ErrBadMixture = errors.New("gibbs: invalid mixture specification")

// NewProductMixtureChain validates the two-component mixture and
// initializes the chain at a random state. Priors must be positive and
// on-probabilities in (0,1); callers clamp boundary values first (see
// model.ClampProb).
func NewProductMixtureChain(prior [2]float64, pOn [2][]float64, rng *rand.Rand) (*ProductMixtureChain, error) {
	n := len(pOn[0])
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length vectors", ErrBadMixture)
	}
	c := &ProductMixtureChain{
		n:      n,
		logOn:  make([]float64, n*2),
		logOff: make([]float64, n*2),
		expOn:  make([]float64, n*2),
		expOff: make([]float64, n*2),
		state:  make([]bool, n),
		rng:    rng,
	}
	for k := 0; k < 2; k++ {
		if len(pOn[k]) != n {
			return nil, fmt.Errorf("%w: component %d has %d probs, want %d", ErrBadMixture, k, len(pOn[k]), n)
		}
		if prior[k] <= 0 {
			return nil, fmt.Errorf("%w: prior[%d] = %v must be positive", ErrBadMixture, k, prior[k])
		}
		c.logPrior[k] = math.Log(prior[k])
		for i, p := range pOn[k] {
			if p <= 0 || p >= 1 {
				return nil, fmt.Errorf("%w: pOn[%d][%d] = %v must be in (0,1)", ErrBadMixture, k, i, p)
			}
			at := i*2 + k
			c.logOn[at] = math.Log(p)
			c.logOff[at] = math.Log(1 - p)
			c.expOn[at] = math.Exp(c.logOn[at])
			c.expOff[at] = math.Exp(c.logOff[at])
		}
	}
	for i := range c.state {
		c.state[i] = rng.Float64() < 0.5
	}
	c.recomputeWeights()
	return c, nil
}

// recomputeWeights rebuilds the running log-products from the state, each
// component's sum accumulated in ascending bit order.
func (c *ProductMixtureChain) recomputeWeights() {
	for k := 0; k < 2; k++ {
		w := c.logPrior[k]
		for i, on := range c.state {
			if on {
				w += c.logOn[i*2+k]
			} else {
				w += c.logOff[i*2+k]
			}
		}
		c.logW[k] = w
	}
}

// Sweep resamples every bit once in index order. Each bit uses the exact
// full conditional P(x_i=1 | x_{-i}) = Σ_h W_h^{-i}·pOn[h][i] / Σ_h W_h^{-i},
// where W_h^{-i} is the component joint weight with bit i's factor removed.
// The running weights stay in registers across the whole batch of bits.
func (c *ProductMixtureChain) Sweep() {
	var (
		logOn, logOff = c.logOn, c.logOff
		expOn, expOff = c.expOn, c.expOff
		state         = c.state
		rng           = c.rng
		w0, w1        = c.logW[0], c.logW[1]
	)
	for i := 0; i < c.n; i++ {
		at := i * 2
		cur0, cur1 := logOff[at], logOff[at+1]
		if state[i] {
			cur0, cur1 = logOn[at], logOn[at+1]
		}
		m0 := w0 - cur0
		m1 := w1 - cur1
		maxLog := m0
		if m1 > maxLog {
			maxLog = m1
		}
		e0 := math.Exp(m0 - maxLog)
		e1 := math.Exp(m1 - maxLog)
		num := e0*expOn[at] + e1*expOn[at+1]
		den := e0*expOff[at] + e1*expOff[at+1]
		pOne := num / (num + den)
		on := rng.Float64() < pOne
		state[i] = on
		if on {
			w0 = m0 + logOn[at]
			w1 = m1 + logOn[at+1]
		} else {
			w0 = m0 + logOff[at]
			w1 = m1 + logOff[at+1]
		}
	}
	c.logW[0], c.logW[1] = w0, w1
	c.sweeps++
	if c.sweeps%refreshEvery == 0 {
		c.recomputeWeights()
	}
}

// State returns the current vector, owned by the chain.
func (c *ProductMixtureChain) State() []bool { return c.state }

// LogJointWeights returns log(prior[h]·P(x|h)) for both components h at
// the current state.
func (c *ProductMixtureChain) LogJointWeights() [2]float64 { return c.logW }
