package gibbs

import (
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
