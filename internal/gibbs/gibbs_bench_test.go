package gibbs

import (
	"context"
	"fmt"
	"testing"

	"depsense/internal/randutil"
)

// BenchmarkProductMixtureSweep measures one systematic-scan sweep of the
// two-component chain used by the error bound, across vector sizes.
func BenchmarkProductMixtureSweep(b *testing.B) {
	for _, n := range []int{10, 50, 200, 1000} {
		rng := randutil.New(1)
		prior, pOn := randomMixture(rng, n)
		chain, err := NewProductMixtureChain(prior, pOn, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chain.Sweep()
			}
		})
	}
}

// BenchmarkSweepN measures the batched sweep loop (the burn-in path of the
// bound approximation) including its per-batch cancellation checks.
func BenchmarkSweepN(b *testing.B) {
	for _, n := range []int{50, 500} {
		rng := randutil.New(2)
		prior, pOn := randomMixture(rng, n)
		chain, err := NewProductMixtureChain(prior, pOn, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chain.SweepN(context.Background(), 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
