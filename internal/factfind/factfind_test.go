package factfind

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestDecisions(t *testing.T) {
	r := &Result{Posterior: []float64{0.9, 0.5, 0.1, 0.51}}
	got := r.Decisions(DefaultThreshold)
	want := []bool{true, false, false, true}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("decisions = %v, want %v", got, want)
		}
	}
}

func TestRankingOrderAndTies(t *testing.T) {
	r := &Result{Posterior: []float64{0.3, 0.9, 0.3, 0.7}}
	got := r.Ranking()
	want := []int{1, 3, 0, 2} // ties broken by ascending id
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranking = %v, want %v", got, want)
		}
	}
}

func TestTopK(t *testing.T) {
	r := &Result{Posterior: []float64{0.1, 0.5, 0.9}}
	if got := r.TopK(2); len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("TopK(2) = %v", got)
	}
	if got := r.TopK(10); len(got) != 3 {
		t.Fatalf("TopK clamp failed: %v", got)
	}
	if got := r.TopK(0); len(got) != 0 {
		t.Fatalf("TopK(0) = %v", got)
	}
}

// TestTopKMatchesRanking: on posteriors with many exact ties, TopK(k) is
// Ranking()[:k], and Ranking is the stable sort by decreasing posterior.
func TestTopKMatchesRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{1, 2, 7, 64, 301} {
		post := make([]float64, m)
		for j := range post {
			post[j] = float64(rng.Intn(5)) / 4 // five distinct values
		}
		r := &Result{Posterior: post}
		want := make([]int, m)
		for j := range want {
			want[j] = j
		}
		sort.SliceStable(want, func(a, b int) bool { return post[want[a]] > post[want[b]] })
		ranked := r.Ranking()
		if !slices.Equal(ranked, want) {
			t.Fatalf("m=%d: Ranking %v, want %v", m, ranked, want)
		}
		for _, k := range []int{0, 1, m - 1, m, m + 5} {
			if got := r.TopK(k); !slices.Equal(got, ranked[:min(k, m)]) {
				t.Fatalf("m=%d: TopK(%d) = %v, want %v", m, k, got, ranked[:min(k, m)])
			}
		}
	}
}
