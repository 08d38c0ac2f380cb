// Package mapsort provides the sanctioned way for deterministic-zone code
// (see internal/analysis/zones) to iterate maps: extract the keys, sort
// them, range over the slice. Go randomizes map iteration order per range
// statement, so any zone package ranging a map directly is flagged by the
// maporder analyzer; calling these helpers instead keeps call sites clean
// of suppression comments.
//
// The package itself is not a deterministic zone — its single unordered
// range is immediately made deterministic by the sort that follows.
package mapsort

import (
	"cmp"
	"sort"
)

// Keys returns the map's keys in ascending order.
func Keys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return cmp.Less(ks[i], ks[j]) })
	return ks
}
