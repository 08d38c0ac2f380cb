package factfind

import (
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
