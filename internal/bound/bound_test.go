package bound

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"depsense/internal/model"
	"depsense/internal/randutil"
)

// TestTableI reproduces the paper's walk-through example: the tabulated
// pattern likelihoods of Table I with z = 0.5 must yield
// Err = 0.26980433 ("the expected error probability of any fact-finding
// algorithm is no less than 26.98%").
func TestTableI(t *testing.T) {
	p1 := []float64{
		0.18546216, 0.17606773, 0.00033244, 0.01971855,
		0.24427898, 0.19063986, 0.02321803, 0.16028224,
	}
	p0 := []float64{
		0.05851677, 0.05300123, 0.12803859, 0.16032756,
		0.14231588, 0.08222352, 0.18716734, 0.18840910,
	}
	res, err := FromPatternTable(p1, p0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Err-0.26980433) > 1e-8 {
		t.Fatalf("Table I bound = %.8f, want 0.26980433", res.Err)
	}
	if math.Abs(res.Err-(res.FalsePos+res.FalseNeg)) > 1e-12 {
		t.Fatal("FP+FN != Err")
	}
}

func TestFromPatternTableValidation(t *testing.T) {
	if _, err := FromPatternTable(nil, nil, 0.5); !errors.Is(err, ErrBadTable) {
		t.Fatalf("want ErrBadTable, got %v", err)
	}
	if _, err := FromPatternTable([]float64{1}, []float64{1, 2}, 0.5); !errors.Is(err, ErrBadTable) {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FromPatternTable([]float64{1}, []float64{1}, 1.5); !errors.Is(err, ErrBadTable) {
		t.Fatal("bad prior accepted")
	}
	if _, err := FromPatternTable([]float64{-1}, []float64{1}, 0.5); !errors.Is(err, ErrBadTable) {
		t.Fatal("negative probability accepted")
	}
}

func TestExactSingleSource(t *testing.T) {
	// One source: claim w.p. a if true, b if false; z = 0.5, a=0.9, b=0.2.
	// Patterns: claim -> min(0.45, 0.10); silence -> min(0.05, 0.40).
	col := Column{P1: []float64{0.9}, P0: []float64{0.2}, Z: 0.5}
	res, err := Exact(context.Background(), col, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.10 + 0.05
	if math.Abs(res.Err-want) > 1e-12 {
		t.Fatalf("Err = %v, want %v", res.Err, want)
	}
	if math.Abs(res.FalsePos-0.10) > 1e-12 || math.Abs(res.FalseNeg-0.05) > 1e-12 {
		t.Fatalf("FP/FN = %v/%v", res.FalsePos, res.FalseNeg)
	}
}

func TestExactUninformativeSources(t *testing.T) {
	// P1 == P0: patterns carry no information, so the optimal estimator
	// always follows the prior and Err = min(z, 1-z).
	col := Column{P1: []float64{0.5, 0.3}, P0: []float64{0.5, 0.3}, Z: 0.3}
	res, err := Exact(context.Background(), col, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Err-0.3) > 1e-12 {
		t.Fatalf("Err = %v, want 0.3", res.Err)
	}
}

func TestExactMatchesBruteForcePatternTable(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := randutil.New(seed)
		n := 1 + rng.Intn(6)
		col := randomColumn(rng, n)
		res, err := Exact(context.Background(), col, 0)
		if err != nil {
			return false
		}
		// Brute force: enumerate patterns explicitly, tabulate, reuse the
		// Table I arithmetic.
		size := 1 << n
		p1 := make([]float64, size)
		p0 := make([]float64, size)
		pattern := make([]bool, n)
		for k := 0; k < size; k++ {
			for i := range pattern {
				pattern[i] = k&(1<<i) != 0
			}
			w1, w0 := col.PatternWeights(pattern)
			p1[k] = w1 / col.Z
			p0[k] = w0 / (1 - col.Z)
		}
		want, err := FromPatternTable(p1, p0, col.Z)
		if err != nil {
			return false
		}
		return math.Abs(res.Err-want.Err) < 1e-10 &&
			math.Abs(res.FalsePos-want.FalsePos) < 1e-10 &&
			math.Abs(res.FalseNeg-want.FalseNeg) < 1e-10
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExactPermutationInvariant: the bound cannot depend on source order.
func TestExactPermutationInvariant(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := randutil.New(seed)
		n := 2 + rng.Intn(7)
		col := randomColumn(rng, n)
		res, err := Exact(context.Background(), col, 0)
		if err != nil {
			return false
		}
		perm := randutil.Perm(rng, n)
		pc := Column{P1: make([]float64, n), P0: make([]float64, n), Z: col.Z}
		for i, p := range perm {
			pc.P1[i] = col.P1[p]
			pc.P0[i] = col.P0[p]
		}
		res2, err := Exact(context.Background(), pc, 0)
		if err != nil {
			return false
		}
		return math.Abs(res.Err-res2.Err) < 1e-10
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExactBoundedByPrior: Bayes risk never exceeds the prior-only error.
func TestExactBoundedByPrior(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := randutil.New(seed)
		col := randomColumn(rng, 1+rng.Intn(8))
		res, err := Exact(context.Background(), col, 0)
		if err != nil {
			return false
		}
		priorErr := math.Min(col.Z, 1-col.Z)
		return res.Err >= -1e-12 && res.Err <= priorErr+1e-12
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExactRejectsTooManySources(t *testing.T) {
	col := Column{
		P1: make([]float64, MaxExactSources+1),
		P0: make([]float64, MaxExactSources+1),
		Z:  0.5,
	}
	for i := range col.P1 {
		col.P1[i], col.P0[i] = 0.5, 0.5
	}
	if _, err := Exact(context.Background(), col, 0); !errors.Is(err, ErrTooManyExact) {
		t.Fatalf("want ErrTooManyExact, got %v", err)
	}
}

func TestColumnValidation(t *testing.T) {
	if err := (Column{}).Validate(); !errors.Is(err, ErrEmptyColumn) {
		t.Fatal("empty column accepted")
	}
	if err := (Column{P1: []float64{0.5}, P0: nil, Z: 0.5}).Validate(); !errors.Is(err, ErrColumnLengths) {
		t.Fatal("length mismatch accepted")
	}
	if err := (Column{P1: []float64{0.5}, P0: []float64{0.5}, Z: -1}).Validate(); err == nil {
		t.Fatal("bad prior accepted")
	}
	if err := (Column{P1: []float64{1.5}, P0: []float64{0.5}, Z: 0.5}).Validate(); err == nil {
		t.Fatal("bad probability accepted")
	}
}

func TestNewColumnResolvesDependency(t *testing.T) {
	p := model.NewParams(2, 0.4)
	p.Sources[0] = model.SourceParams{A: 0.8, B: 0.3, F: 0.6, G: 0.5}
	p.Sources[1] = model.SourceParams{A: 0.7, B: 0.2, F: 0.9, G: 0.1}
	col, err := NewColumn(p, []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	if col.P1[0] != 0.8 || col.P0[0] != 0.3 {
		t.Fatalf("independent source resolved wrong: %v/%v", col.P1[0], col.P0[0])
	}
	if col.P1[1] != 0.9 || col.P0[1] != 0.1 {
		t.Fatalf("dependent source resolved wrong: %v/%v", col.P1[1], col.P0[1])
	}
	if _, err := NewColumn(p, []bool{true}); err == nil {
		t.Fatal("column length mismatch accepted")
	}
}

// TestApproxMatchesExact is the reproduction target behind Figs. 3-5: the
// Gibbs approximation must track the exact bound closely.
func TestApproxMatchesExact(t *testing.T) {
	rng := randutil.New(123)
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(10)
		col := randomColumn(rng, n)
		exact, err := Exact(context.Background(), col, 0)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := ApproxContext(context.Background(), col, 30000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(exact.Err - approx.Err); diff > 0.015 {
			t.Errorf("trial %d (n=%d): exact %v vs approx %v (diff %v)", trial, n, exact.Err, approx.Err, diff)
		}
		if fpDiff := math.Abs(exact.FalsePos - approx.FalsePos); fpDiff > 0.02 {
			t.Errorf("trial %d: FP exact %v vs approx %v", trial, exact.FalsePos, approx.FalsePos)
		}
	}
}

func TestApproxDecomposition(t *testing.T) {
	rng := randutil.New(5)
	col := randomColumn(rng, 6)
	res, err := ApproxContext(context.Background(), col, 5000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Err-(res.FalsePos+res.FalseNeg)) > 1e-12 {
		t.Fatal("FP+FN != Err")
	}
	if res.Sweeps <= 0 || res.StdErr < 0 {
		t.Fatalf("bad metadata: %+v", res)
	}
}

func TestApproxConvergesEarly(t *testing.T) {
	rng := randutil.New(6)
	col := randomColumn(rng, 4)
	res, err := ApproxContext(context.Background(), col, 100000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps >= 100000 {
		t.Fatal("convergence check never fired")
	}
}

func TestApproxValidatesColumn(t *testing.T) {
	if _, err := ApproxContext(context.Background(), Column{}, 0, randutil.New(1)); err == nil {
		t.Fatal("empty column accepted")
	}
}

func randomColumn(rng interface{ Float64() float64 }, n int) Column {
	col := Column{P1: make([]float64, n), P0: make([]float64, n), Z: 0.2 + 0.6*rng.Float64()}
	for i := 0; i < n; i++ {
		col.P1[i] = 0.05 + 0.9*rng.Float64()
		col.P0[i] = 0.05 + 0.9*rng.Float64()
	}
	return col
}
