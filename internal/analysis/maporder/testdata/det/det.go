// Fixture analyzed under the import path depsense/internal/core, a
// deterministic zone.
package fixture

import (
	"fmt"
	"sort"
)

// Reduce ranges a map every way the analyzer cares about.
func Reduce(weights map[int]float64, names map[string]int) float64 {
	total := 0.0
	for _, w := range weights { // want `range over map`
		total += w
	}

	// Sorted-key iteration is the sanctioned pattern: the range is over a
	// slice, so nothing fires.
	keys := make([]int, 0, len(weights))
	for k := range weights { //lint:allow maporder key extraction, sorted on the next line
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		total += weights[k]
	}

	for range names { // want `range over map`
		total++
	}
	return total
}

// Suppressed demonstrates both placements of a justified allow.
func Suppressed(m map[int]int) int {
	n := 0
	for range m { //lint:allow maporder order-independent count accumulation
		n++
	}
	//lint:allow maporder order-independent max over values
	for _, v := range m {
		if v > n {
			n = v
		}
	}
	return n
}

// pairKey is a (source, assertion) pair, as claims.Builder keys its claims.
type pairKey struct{ i, j int }

// FirstConflict is the shape of the claims.Builder bug maporder caught:
// which conflicting pair the error named depended on map order.
func FirstConflict(claimed, silent map[pairKey]bool) error {
	for k, dep := range claimed { // want `range over map map\[pairKey\]bool`
		if silent[k] && !dep {
			return fmt.Errorf("conflicting pair (source=%d, assertion=%d)", k.i, k.j)
		}
	}
	return nil
}

// Slices never fire.
func SliceRange(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
