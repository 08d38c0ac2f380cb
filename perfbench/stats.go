package main

import (
	"fmt"
	"sort"

	"depsense/internal/grader"
	"depsense/internal/twittersim"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// With fewer, the percentile reads whichever outlier (a GC pause, a
// neighbour's burst) happened to land in the run, and does not repeat.
const minBeyond = 10

// tailStat is a tail percentile read from one set of samples.
type tailStat struct {
	value  float64
	pct    int // the percentile, 1..99
	rank   int // 1-based nearest rank of value in sorted order
	beyond int // samples strictly after rank
}

// nearestRank is the 1-based rank of the p-th percentile of n samples:
// ceil(p·n/100), at least 1.
func nearestRank(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile reads the p-th percentile (nearest rank) of sorted samples.
func percentile(sorted []float64, p int) float64 {
	return sorted[nearestRank(len(sorted), p)-1]
}

// tail returns the highest whole percentile, at most p99, that has at least
// minBeyond samples beyond it. ok is false when there are too few samples
// for any percentile to qualify.
func tail(sorted []float64) (ts tailStat, ok bool) {
	n := len(sorted)
	for p := 99; p >= 1; p-- {
		rank := nearestRank(n, p)
		if n-rank >= minBeyond {
			return tailStat{value: sorted[rank-1], pct: p, rank: rank, beyond: n - rank}, true
		}
	}
	return tailStat{}, false
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// topPrecision is the paper's §V-C score of a ranking: each ranked cluster
// is graded True, False or Opinion by the majority ground-truth assertion
// of its tweets (assign maps tweet i to its cluster), and the score is
// #True over all graded.
func topPrecision(ranked, assign []int, tweets []twittersim.Tweet, kinds []twittersim.Kind) (float64, error) {
	labels, err := grader.Grade(assign, tweets, kinds)
	if err != nil {
		return 0, fmt.Errorf("grade ranking: %w", err)
	}
	score, err := grader.ScoreTopK(ranked, labels)
	if err != nil {
		return 0, fmt.Errorf("score ranking: %w", err)
	}
	return score.Accuracy(), nil
}
