package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"depsense/internal/model"
	"depsense/internal/randutil"
	"depsense/internal/stats"
	"depsense/internal/synthetic"
)

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.995, 2.575829},
		{0.841344746, 1.0},
	}
	for _, c := range cases {
		if got := normalQuantile(c.p); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("normalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(normalQuantile(0)) || !math.IsNaN(normalQuantile(1)) {
		t.Error("boundary quantiles should be NaN")
	}
}

func TestConfidenceValidation(t *testing.T) {
	w := genWorld(t, 6, 15, 8)
	res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConfidenceIntervals(w.Dataset, res.Params, res.Posterior, 1.5); !errors.Is(err, ErrBadLevel) {
		t.Fatalf("want ErrBadLevel, got %v", err)
	}
	if _, err := ConfidenceIntervals(w.Dataset, model.NewParams(2, 0.5), res.Posterior, 0.95); err == nil {
		t.Fatal("mismatched params accepted")
	}
	if _, err := ConfidenceIntervals(w.Dataset, res.Params, res.Posterior[:3], 0.95); err == nil {
		t.Fatal("mismatched posterior accepted")
	}
}

func TestConfidenceBasicShape(t *testing.T) {
	w := genWorld(t, 10, 40, 9)
	res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := ConfidenceIntervals(w.Dataset, res.Params, res.Posterior, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(ci.Sources) != 10 {
		t.Fatalf("%d source intervals", len(ci.Sources))
	}
	for i, sc := range ci.Sources {
		for _, iv := range [...]Interval{sc.A, sc.B, sc.F, sc.G} {
			if iv.Lo < 0 || iv.Hi > 1 || iv.Lo > iv.Hi {
				t.Fatalf("source %d: bad interval %+v", i, iv)
			}
		}
		if !sc.A.Contains(res.Params.Sources[i].A) {
			t.Fatalf("source %d: point estimate outside its own interval", i)
		}
	}
	if !ci.Z.Contains(res.Params.Z) {
		t.Fatal("ẑ outside its interval")
	}
}

// TestConfidenceShrinksWithData: more assertions → tighter intervals.
func TestConfidenceShrinksWithData(t *testing.T) {
	width := func(m int) float64 {
		cfg := synthetic.EstimatorConfig()
		cfg.Sources = 20
		cfg.Assertions = m
		w, err := synthetic.Generate(cfg, randutil.New(3))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ci, err := ConfidenceIntervals(w.Dataset, res.Params, res.Posterior, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		var total stats.Series
		for _, sc := range ci.Sources {
			total.Add(sc.A.Width())
			total.Add(sc.B.Width())
		}
		return total.Mean()
	}
	small := width(30)
	large := width(300)
	if large >= small {
		t.Fatalf("intervals did not shrink: m=30 width %v vs m=300 width %v", small, large)
	}
}

// TestConfidenceCoverage: at m=400 the 95% intervals for the independent
// channel should cover the generating parameters for a healthy majority of
// sources (the approximation is optimistic, so demand ≥ 60%, not 95%).
func TestConfidenceCoverage(t *testing.T) {
	cfg := synthetic.EstimatorConfig()
	cfg.Sources = 30
	cfg.Assertions = 400
	covered, total := 0, 0
	for seed := int64(0); seed < 3; seed++ {
		w, err := synthetic.Generate(cfg, randutil.New(40+seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ci, err := ConfidenceIntervals(w.Dataset, res.Params, res.Posterior, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		for i, sc := range ci.Sources {
			truth := w.TrueParams.Sources[i]
			if sc.A.Contains(truth.A) {
				covered++
			}
			if sc.B.Contains(truth.B) {
				covered++
			}
			total += 2
		}
	}
	rate := float64(covered) / float64(total)
	if rate < 0.6 {
		t.Fatalf("coverage %v below 0.6", rate)
	}
}

func TestConfidenceVacuousOnEmptyStrata(t *testing.T) {
	// A dataset with no dependent pairs: the F/G intervals must be vacuous.
	w := func() *synthetic.World {
		cfg := synthetic.DefaultConfig()
		cfg.Sources = 8
		cfg.Trees = synthetic.FixedInt(8) // all roots
		world, err := synthetic.Generate(cfg, randutil.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return world
	}()
	res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := ConfidenceIntervals(w.Dataset, res.Params, res.Posterior, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range ci.Sources {
		if sc.F.Lo != 0 || sc.F.Hi != 1 || sc.G.Lo != 0 || sc.G.Hi != 1 {
			t.Fatalf("source %d: dependent intervals not vacuous: %+v", i, sc)
		}
	}
}
