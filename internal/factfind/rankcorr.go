package factfind

import (
	"errors"
	"fmt"
)

// ErrRankLength reports rankings over different assertion counts.
var ErrRankLength = errors.New("factfind: rankings have different lengths")

// KendallTau computes the Kendall rank correlation τ between two complete
// rankings of the same assertions (each a permutation of assertion ids, as
// returned by Result.Ranking). τ = 1 for identical orderings, -1 for exact
// reversals, ~0 for unrelated ones. It is the standard way to quantify how
// differently two fact-finders order the same dataset.
//
// Complexity is O(k log k) via merge-sort inversion counting, so it is
// usable on the Twitter-scale rankings (tens of thousands of assertions).
func KendallTau(a, b []int) (float64, error) {
	k := len(a)
	if k != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrRankLength, k, len(b))
	}
	if k < 2 {
		return 1, nil
	}
	// Position of every assertion in ranking b.
	posB := make([]int, k)
	for rank, id := range b {
		if id < 0 || id >= k {
			return 0, fmt.Errorf("factfind: ranking b contains id %d outside [0,%d)", id, k)
		}
		posB[id] = rank
	}
	// Sequence of b-positions in a's order; inversions in it are exactly
	// the discordant pairs.
	seq := make([]int, k)
	for rank, id := range a {
		if id < 0 || id >= k {
			return 0, fmt.Errorf("factfind: ranking a contains id %d outside [0,%d)", id, k)
		}
		seq[rank] = posB[id]
	}
	inversions := countInversions(seq)
	pairs := k * (k - 1) / 2
	concordant := pairs - inversions
	return float64(concordant-inversions) / float64(pairs), nil
}

// countInversions counts pairs i < j with seq[i] > seq[j] by merge sort.
func countInversions(seq []int) int {
	buf := make([]int, len(seq))
	work := make([]int, len(seq))
	copy(work, seq)
	return mergeCount(work, buf)
}

func mergeCount(seq, buf []int) int {
	n := len(seq)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := mergeCount(seq[:mid], buf[:mid]) + mergeCount(seq[mid:], buf[mid:])
	i, j, k := 0, mid, 0
	// Bounded merge: i or j advances every iteration until mid/n.
	for i < mid && j < n {
		if seq[i] <= seq[j] {
			buf[k] = seq[i]
			i++
		} else {
			buf[k] = seq[j]
			j++
			inv += mid - i
		}
		k++
	}
	copy(buf[k:], seq[i:mid])
	copy(buf[k+(mid-i):], seq[j:])
	copy(seq, buf[:n])
	return inv
}
