package gibbs

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"depsense/internal/randutil"
)

// bruteMixture is the from-scratch reference of the same product mixture:
// it recomputes every full conditional from the joint.
type bruteMixture struct {
	prior [2]float64
	pOn   [2][]float64
}

func (b *bruteMixture) joint(x []bool) float64 {
	total := 0.0
	for h := range b.prior {
		w := b.prior[h]
		for i, on := range x {
			if on {
				w *= b.pOn[h][i]
			} else {
				w *= 1 - b.pOn[h][i]
			}
		}
		total += w
	}
	return total
}

// condProbOne returns P(x_i = 1 | x_{-i}) from two full joint evaluations.
func (b *bruteMixture) condProbOne(x []bool, i int) float64 {
	y := make([]bool, len(x))
	copy(y, x)
	y[i] = true
	on := b.joint(y)
	y[i] = false
	off := b.joint(y)
	return on / (on + off)
}

func randomMixture(rng *rand.Rand, n int) ([2]float64, [2][]float64) {
	var prior [2]float64
	total := 0.0
	for k := range prior {
		prior[k] = 0.1 + rng.Float64()
		total += prior[k]
	}
	for k := range prior {
		prior[k] /= total
	}
	var pOn [2][]float64
	for k := range pOn {
		pOn[k] = make([]float64, n)
		for i := range pOn[k] {
			pOn[k][i] = 0.05 + 0.9*rng.Float64()
		}
	}
	return prior, pOn
}

// TestChainConditionalsMatchBruteForce compares the incremental O(1)
// conditionals of ProductMixtureChain against from-scratch computation.
func TestChainConditionalsMatchBruteForce(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := randutil.New(seed)
		n := 1 + rng.Intn(8)
		prior, pOn := randomMixture(rng, n)
		chain, err := NewProductMixtureChain(prior, pOn, rng)
		if err != nil {
			return false
		}
		brute := &bruteMixture{prior: prior, pOn: pOn}
		for sweep := 0; sweep < 3; sweep++ {
			for i := 0; i < n; i++ {
				// Probe the chain's conditional by reconstructing it from
				// the running weights (mirrors Sweep's arithmetic).
				state := chain.State()
				lw := chain.LogJointWeights()
				num, den := 0.0, 0.0
				for k := 0; k < 2; k++ {
					cur := 1 - pOn[k][i]
					if state[i] {
						cur = pOn[k][i]
					}
					wMinus := math.Exp(lw[k]) / cur
					num += wMinus * pOn[k][i]
					den += wMinus * (1 - pOn[k][i])
				}
				got := num / (num + den)
				want := brute.condProbOne(state, i)
				if math.Abs(got-want) > 1e-9 {
					return false
				}
			}
			chain.Sweep()
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChainSamplesTargetDistribution verifies empirically that long-run
// state frequencies approach the mixture probabilities on a tiny space.
func TestChainSamplesTargetDistribution(t *testing.T) {
	rng := randutil.New(7)
	prior := [2]float64{0.6, 0.4}
	pOn := [2][]float64{{0.8, 0.3}, {0.2, 0.9}}
	chain, err := NewProductMixtureChain(prior, pOn, rng)
	if err != nil {
		t.Fatal(err)
	}
	brute := &bruteMixture{prior: prior, pOn: pOn}

	counts := make(map[int]int)
	const sweeps = 200000
	for s := 0; s < sweeps; s++ {
		chain.Sweep()
		key := 0
		for i, on := range chain.State() {
			if on {
				key |= 1 << i
			}
		}
		counts[key]++
	}
	for key := 0; key < 4; key++ {
		x := []bool{key&1 != 0, key&2 != 0}
		want := brute.joint(x)
		got := float64(counts[key]) / sweeps
		if math.Abs(got-want) > 0.01 {
			t.Errorf("pattern %02b: freq %v, want %v", key, got, want)
		}
	}
}

// TestLogJointWeightsStayConsistent checks that incremental updates plus
// periodic refresh never drift from the from-scratch weights.
func TestLogJointWeightsStayConsistent(t *testing.T) {
	rng := randutil.New(9)
	prior, pOn := randomMixture(rng, 12)
	chain, err := NewProductMixtureChain(prior, pOn, rng)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 600; s++ {
		chain.Sweep()
	}
	state := chain.State()
	lw := chain.LogJointWeights()
	for k := range prior {
		want := math.Log(prior[k])
		for i, on := range state {
			if on {
				want += math.Log(pOn[k][i])
			} else {
				want += math.Log(1 - pOn[k][i])
			}
		}
		if math.Abs(lw[k]-want) > 1e-8 {
			t.Fatalf("component %d drifted: %v vs %v", k, lw[k], want)
		}
	}
}

func TestNewProductMixtureChainValidation(t *testing.T) {
	rng := randutil.New(1)
	cases := []struct {
		prior [2]float64
		pOn   [2][]float64
	}{
		{},
		{[2]float64{0.5, 0.5}, [2][]float64{{0.5}, {0.5, 0.5}}},
		{[2]float64{0.5, 0.5}, [2][]float64{{0.5}, nil}},
		{[2]float64{0.5, 0.5}, [2][]float64{{}, {}}},
		{[2]float64{0, 1}, [2][]float64{{0.5}, {0.5}}},
		{[2]float64{0.5, 0.5}, [2][]float64{{0.5}, {1.0}}},
		{[2]float64{0.5, 0.5}, [2][]float64{{0.0}, {0.5}}},
	}
	for i, c := range cases {
		if _, err := NewProductMixtureChain(c.prior, c.pOn, rng); !errors.Is(err, ErrBadMixture) {
			t.Errorf("case %d: invalid mixture accepted (err = %v)", i, err)
		}
	}
}
