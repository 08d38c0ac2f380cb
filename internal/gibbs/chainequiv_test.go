package gibbs

import (
	"math"
	"math/rand"
	"testing"
)

// refChain is the pre-flattening ProductMixtureChain implementation kept
// verbatim as the differential oracle: [h][i] tables, per-bit
// re-exponentiation, one generic sample loop over the components. The
// production chain (flattened tables, precomputed exp, unrolled
// two-component sweep) must reproduce its state stream bit for bit — same
// conditionals, same RNG consumption, same incremental weights.
type refChain struct {
	n, h     int
	logOn    [][]float64
	logOff   [][]float64
	logPrior []float64
	state    []bool
	logW     []float64
	rng      *rand.Rand
	sweeps   int
}

func newRefChain(prior []float64, pOn [][]float64, rng *rand.Rand) *refChain {
	h := len(prior)
	n := len(pOn[0])
	c := &refChain{
		n: n, h: h,
		logOn:    make([][]float64, h),
		logOff:   make([][]float64, h),
		logPrior: make([]float64, h),
		state:    make([]bool, n),
		logW:     make([]float64, h),
		rng:      rng,
	}
	for k := 0; k < h; k++ {
		c.logPrior[k] = math.Log(prior[k])
		c.logOn[k] = make([]float64, n)
		c.logOff[k] = make([]float64, n)
		for i, p := range pOn[k] {
			c.logOn[k][i] = math.Log(p)
			c.logOff[k][i] = math.Log(1 - p)
		}
	}
	for i := range c.state {
		c.state[i] = rng.Float64() < 0.5
	}
	c.recompute()
	return c
}

func (c *refChain) recompute() {
	for k := 0; k < c.h; k++ {
		w := c.logPrior[k]
		for i, on := range c.state {
			if on {
				w += c.logOn[k][i]
			} else {
				w += c.logOff[k][i]
			}
		}
		c.logW[k] = w
	}
}

func (c *refChain) sweep() {
	for i := 0; i < c.n; i++ {
		maxLog := math.Inf(-1)
		minus := make([]float64, c.h)
		for k := 0; k < c.h; k++ {
			cur := c.logOff[k][i]
			if c.state[i] {
				cur = c.logOn[k][i]
			}
			minus[k] = c.logW[k] - cur
			if minus[k] > maxLog {
				maxLog = minus[k]
			}
		}
		var num, den float64
		for k := 0; k < c.h; k++ {
			w := math.Exp(minus[k] - maxLog)
			num += w * math.Exp(c.logOn[k][i])
			den += w * math.Exp(c.logOff[k][i])
		}
		pOne := num / (num + den)
		on := c.rng.Float64() < pOne
		c.state[i] = on
		for k := 0; k < c.h; k++ {
			if on {
				c.logW[k] = minus[k] + c.logOn[k][i]
			} else {
				c.logW[k] = minus[k] + c.logOff[k][i]
			}
		}
	}
	c.sweeps++
	if c.sweeps%refreshEvery == 0 {
		c.recompute()
	}
}

// TestChainMatchesReference drives the production chain and the reference
// implementation from identically seeded RNGs and demands bit-identical
// states and log-weights after every sweep, across the refreshEvery boundary
// so the periodic from-scratch recomputation is also covered.
func TestChainMatchesReference(t *testing.T) {
	for _, n := range []int{1, 7, 64, 301} {
		seed := int64(2000 + n)
		setup := rand.New(rand.NewSource(seed))
		var prior [2]float64
		var pOn [2][]float64
		for k := range prior {
			prior[k] = 0.1 + setup.Float64()
			pOn[k] = make([]float64, n)
			for i := range pOn[k] {
				// Include near-boundary probabilities: the bound's
				// clamped channels sit at 1e-9.
				switch i % 3 {
				case 0:
					pOn[k][i] = 1e-9 + setup.Float64()*1e-6
				case 1:
					pOn[k][i] = 1 - 1e-9 - setup.Float64()*1e-6
				default:
					pOn[k][i] = 0.05 + 0.9*setup.Float64()
				}
			}
		}
		got, err := NewProductMixtureChain(prior, pOn, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := newRefChain(prior[:], pOn[:], rand.New(rand.NewSource(seed+1)))
		sweeps := refreshEvery + 40 // cross the periodic recompute
		if testing.Short() {
			sweeps = 50
		}
		for s := 0; s < sweeps; s++ {
			got.Sweep()
			want.sweep()
			for i := range want.state {
				if got.state[i] != want.state[i] {
					t.Fatalf("n=%d sweep %d: state[%d] diverged", n, s, i)
				}
			}
			for k := range want.logW {
				if math.Float64bits(got.logW[k]) != math.Float64bits(want.logW[k]) {
					t.Fatalf("n=%d sweep %d: logW[%d] = %x, want %x",
						n, s, k, got.logW[k], want.logW[k])
				}
			}
		}
	}
}
