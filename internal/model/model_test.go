package model

import (
	"math"
	"testing"
	"testing/quick"

	"depsense/internal/randutil"
)

func TestPClaimTable(t *testing.T) {
	p := SourceParams{A: 0.8, B: 0.3, F: 0.6, G: 0.2}
	cases := []struct {
		claimed, truth, dependent bool
		want                      float64
	}{
		{true, true, false, 0.8},
		{false, true, false, 0.2},
		{true, false, false, 0.3},
		{false, false, false, 0.7},
		{true, true, true, 0.6},
		{false, true, true, 0.4},
		{true, false, true, 0.2},
		{false, false, true, 0.8},
	}
	for _, c := range cases {
		got := p.PClaim(c.claimed, c.truth, c.dependent)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PClaim(%v,%v,%v) = %v, want %v", c.claimed, c.truth, c.dependent, got, c.want)
		}
	}
}

func TestPClaimComplementarity(t *testing.T) {
	err := quick.Check(func(a, b, f, g float64, truth, dep bool) bool {
		p := SourceParams{A: frac(a), B: frac(b), F: frac(f), G: frac(g)}
		sum := p.PClaim(true, truth, dep) + p.PClaim(false, truth, dep)
		return math.Abs(sum-1) < 1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// frac maps an arbitrary float64 into [0,1].
func frac(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	v = math.Abs(v)
	return v - math.Floor(v)
}

func TestValidate(t *testing.T) {
	good := SourceParams{A: 0.5, B: 0.5, F: 0.5, G: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []SourceParams{
		{A: -0.1, B: 0.5, F: 0.5, G: 0.5},
		{A: 0.5, B: 1.1, F: 0.5, G: 0.5},
		{A: 0.5, B: 0.5, F: math.NaN(), G: 0.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (&Params{}).Validate(); err == nil {
		t.Error("empty params accepted")
	}
	p := NewParams(2, 0.5)
	if err := p.Validate(); err != nil {
		t.Errorf("zeroed params rejected: %v", err)
	}
	p.Z = 2
	if err := p.Validate(); err == nil {
		t.Error("z=2 accepted")
	}
	p.Z = 0.5
	p.Sources[1].A = -1
	if err := p.Validate(); err == nil {
		t.Error("negative source param accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := NewParams(3, 0.4)
	p.Sources[0].A = 0.9
	q := p.Clone()
	q.Sources[0].A = 0.1
	q.Z = 0.8
	if p.Sources[0].A != 0.9 || p.Z != 0.4 {
		t.Fatal("Clone aliases the original")
	}
}

func TestClampProb(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-1, ProbEpsilon},
		{0, ProbEpsilon},
		{0.5, 0.5},
		{1, 1 - ProbEpsilon},
		{2, 1 - ProbEpsilon},
		{math.NaN(), 0.5},
	}
	for _, c := range cases {
		if got := ClampProb(c.in); got != c.want {
			t.Errorf("ClampProb(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestClampProbRange(t *testing.T) {
	err := quick.Check(func(v float64) bool {
		got := ClampProb(v)
		return got >= ProbEpsilon && got <= 1-ProbEpsilon
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestInformedInitOrdering(t *testing.T) {
	rng := randutil.New(2)
	for i := 0; i < 50; i++ {
		p := InformedInitParams(rng, 10)
		if err := p.Validate(); err != nil {
			t.Fatalf("InformedInitParams invalid: %v", err)
		}
		for j, s := range p.Sources {
			if s.A <= s.B || s.F <= s.G {
				t.Fatalf("informed init not label-identified at source %d: %+v", j, s)
			}
		}
	}
}

func TestParamsClampInPlace(t *testing.T) {
	p := NewParams(1, -0.5)
	p.Sources[0] = SourceParams{A: 5, B: -5, F: 0.5, G: math.NaN()}
	p.Clamp()
	if err := p.Validate(); err != nil {
		t.Fatalf("clamped params invalid: %v", err)
	}
	if p.Sources[0].G != 0.5 {
		t.Fatalf("NaN clamp = %v, want 0.5", p.Sources[0].G)
	}
}

func TestReliability(t *testing.T) {
	// t_i = a z / (a z + b (1-z)) by direct computation.
	p := SourceParams{A: 0.9, B: 0.2}
	got := p.Reliability(0.5)
	want := 0.9 * 0.5 / (0.9*0.5 + 0.2*0.5)
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("Reliability(0.5) = %v, want %v", got, want)
	}
	// A perfectly clean channel is fully reliable; a degenerate one is 0.
	if r := (SourceParams{A: 0.4, B: 0}).Reliability(0.5); r != 1 {
		t.Fatalf("b=0 reliability = %v, want 1", r)
	}
	if r := (SourceParams{}).Reliability(0.5); r != 0 {
		t.Fatalf("degenerate reliability = %v, want 0", r)
	}
	// Scale-free: halving both rates (the source tweeting half as often)
	// leaves t_i unchanged — the property that makes it the drift series.
	q := SourceParams{A: p.A / 2, B: p.B / 2}
	if math.Abs(q.Reliability(0.5)-got) > 1e-15 {
		t.Fatalf("reliability not scale-free: %v vs %v", q.Reliability(0.5), got)
	}
	// Monotone in the prior.
	if p.Reliability(0.9) <= p.Reliability(0.1) {
		t.Fatal("reliability not monotone in z")
	}
}
