package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClassify(t *testing.T) {
	decisions := []bool{true, true, false, false, true}
	truth := []bool{true, false, false, true, true}
	c, err := Classify(decisions, truth)
	if err != nil {
		t.Fatal(err)
	}
	if c.TruePos != 2 || c.TrueNeg != 1 || c.FalsePos != 1 || c.FalseNeg != 1 {
		t.Fatalf("counts: %+v", c)
	}
	if math.Abs(c.Accuracy-0.6) > 1e-12 {
		t.Fatalf("accuracy = %v", c.Accuracy)
	}
	if math.Abs(c.FalsePosRate-0.2) > 1e-12 || math.Abs(c.FalseNegRate-0.2) > 1e-12 {
		t.Fatalf("rates: %+v", c)
	}
	// Accuracy identity matches the bound decomposition.
	if math.Abs(c.Accuracy+c.FalsePosRate+c.FalseNegRate-1) > 1e-12 {
		t.Fatal("accuracy + FP + FN != 1")
	}
}

func TestClassifyErrors(t *testing.T) {
	if _, err := Classify([]bool{true}, []bool{true, false}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}
	if _, err := Classify(nil, nil); err == nil {
		t.Fatal("empty vectors accepted")
	}
}

func TestClassifyIdentity(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		d := make([]bool, n)
		tr := make([]bool, n)
		for i := range d {
			d[i] = rng.Intn(2) == 0
			tr[i] = rng.Intn(2) == 0
		}
		c, err := Classify(d, tr)
		if err != nil {
			return false
		}
		return c.TruePos+c.TrueNeg+c.FalsePos+c.FalseNeg == n &&
			math.Abs(c.Accuracy+c.FalsePosRate+c.FalseNegRate-1) < 1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSeriesKnownValues(t *testing.T) {
	var s Series
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance is
	// 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v", s.Variance())
	}
}

func TestSeriesEmptyAndSingle(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Std() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Fatal("empty series not zeroed")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Variance() != 0 {
		t.Fatal("single-value series wrong")
	}
}

// TestSeriesMatchesNaive cross-checks Welford against the two-pass formula.
func TestSeriesMatchesNaive(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		var s Series
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			s.Add(xs[i])
		}
		mean := Mean(xs)
		var ss float64
		for _, v := range xs {
			ss += (v - mean) * (v - mean)
		}
		naiveVar := ss / float64(n-1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Variance()-naiveVar) < 1e-6
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}
