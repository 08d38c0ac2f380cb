package main

import (
	"testing"

	"depsense/internal/ingest"
	"depsense/internal/qual"
	"depsense/internal/twittersim"
)

func ascending(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, pct, beyond int
	}{
		{n: 11, pct: 9, beyond: 10},
		{n: 57, pct: 82, beyond: 10},   // an ingest-catchup rep
		{n: 113, pct: 91, beyond: 10},  // an ingest-quality rep
		{n: 1000, pct: 99, beyond: 10}, // a factfind-unique rep
		{n: 8000, pct: 99, beyond: 80}, // capped at p99
	} {
		ts, ok := tail(ascending(tc.n))
		if !ok {
			t.Fatalf("n=%d: no tail percentile", tc.n)
		}
		if ts.pct != tc.pct || ts.beyond != tc.beyond {
			t.Errorf("n=%d: got p%d with %d beyond, want p%d with %d", tc.n, ts.pct, ts.beyond, tc.pct, tc.beyond)
		}
		if ts.value != float64(ts.rank) || tc.n-ts.rank != ts.beyond {
			t.Errorf("n=%d: value %g at rank %d does not match %d beyond", tc.n, ts.value, ts.rank, ts.beyond)
		}
		// One more percentile would leave fewer than ten samples beyond.
		if ts.pct < 99 && tc.n-nearestRank(tc.n, ts.pct+1) >= minBeyond {
			t.Errorf("n=%d: p%d also has ten beyond", tc.n, ts.pct+1)
		}
	}
	if _, ok := tail(ascending(10)); ok {
		t.Error("10 samples gave a tail percentile; none can have ten beyond it")
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	if got := percentile(ascending(57), 50); got != 29 {
		t.Errorf("p50 of 1..57 = %g, want 29", got)
	}
}

// quality builds a batch's verdict; bound marks a batch whose refit
// evaluated the error bound.
func quality(batch int, bound bool) *ingest.Published {
	v := &qual.Verdict{Tick: batch, Bound: &qual.BoundStatus{Tick: batch - batch%8}}
	if bound {
		v.Bound.Tick = batch
	}
	return &ingest.Published{Batch: batch, Quality: v}
}

func TestCheckTailIsBound(t *testing.T) {
	const batches = 113
	gaps := make([]float64, batches)
	pubs := make([]*ingest.Published, batches)
	for i := range gaps {
		gaps[i] = 10
		if i%8 == 0 {
			gaps[i] = 400 + float64(i)
		}
		pubs[i] = quality(i, i%8 == 0)
	}
	o := &outcome{values: map[string]float64{}}
	checkTailIsBound(gaps, pubs, o)
	if o.failed != 0 {
		t.Fatalf("tail inside the bound batches failed the check: %v", o.failures)
	}

	// Only the last five bound evaluations are slow: p91 lands on a plain
	// refit.
	for i := 0; i < 80; i += 8 {
		gaps[i] = 5
	}
	checkTailIsBound(gaps, pubs, o)
	if o.failed != 1 {
		t.Fatalf("tail on a plain refit: %d failures, want 1", o.failed)
	}
}

func TestTopPrecisionOnHandGradedRanking(t *testing.T) {
	// Ground truth: assertion 0 is true, 1 false, 2 an opinion.
	kinds := []twittersim.Kind{twittersim.KindTrue, twittersim.KindFalse, twittersim.KindOpinion}
	tweets := []twittersim.Tweet{
		{Assertion: 0}, {Assertion: 0}, {Assertion: 1}, // cluster 0: majority true
		{Assertion: 1}, {Assertion: 1}, // cluster 1: false
		{Assertion: 2}, // cluster 2: opinion
	}
	assign := []int{0, 0, 0, 1, 1, 2}
	for _, tc := range []struct {
		ranked []int
		want   float64
	}{
		{[]int{0, 1, 2}, 1.0 / 3},
		{[]int{0}, 1},
		{[]int{2, 1}, 0},
	} {
		got, err := topPrecision(tc.ranked, assign, tweets, kinds)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("ranking %v: precision %g, want %g", tc.ranked, got, tc.want)
		}
	}
	if _, err := topPrecision([]int{3}, assign, tweets, kinds); err == nil {
		t.Error("ranking a cluster that does not exist was not an error")
	}
}

func TestRankingEqualIsExact(t *testing.T) {
	a := ranking{ids: []int{3, 1}, bits: []uint64{10, 20}}
	if !a.equal(ranking{ids: []int{3, 1}, bits: []uint64{10, 20}}) {
		t.Error("identical rankings compared unequal")
	}
	for _, b := range []ranking{
		{ids: []int{1, 3}, bits: []uint64{10, 20}},
		{ids: []int{3, 1}, bits: []uint64{10, 21}},
		{ids: []int{3}, bits: []uint64{10}},
	} {
		if a.equal(b) {
			t.Errorf("%v compared equal to %v", b, a)
		}
	}
}
