package core

import (
	"context"
	"testing"

	"depsense/internal/model"
)

// TestWarmRefitKernelAllocFree is the regression test for the scratch
// plumbing: with a warmed Scratch and serial workers, one full EM kernel
// iteration — refreshLogs, E-step, M-step — performs zero heap
// allocations, for every variant. This is the loop a stream warm refit
// spends its life in; a regression here (a closure capture, a forgotten
// buffer, an escaping slice header) shows up as allocs/op > 0.
func TestWarmRefitKernelAllocFree(t *testing.T) {
	w := genWorld(t, 40, 200, 91)
	res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{DepMode: DepModeJoint})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
		params := res.Params.Clone()
		params.Clamp()
		eng := newEngine(w.Dataset, v, Options{Scratch: NewScratch()})
		iterate := func() {
			eng.refreshLogs(params)
			eng.eStep(params)
			eng.mStep(params)
		}
		iterate() // warm the scratch
		if allocs := testing.AllocsPerRun(20, iterate); allocs != 0 {
			t.Errorf("variant=%v: %.0f allocs per warm iteration, want 0", v, allocs)
		}
	}
}

// TestWarmFitAllocsSizeIndependent: a warm fit through the public RunCtx
// with a Scratch allocates only per-fit objects (the Result, its posterior
// copy, parameter clones), never per-element kernel buffers — so allocs/op
// must not grow with the dataset.
func TestWarmFitAllocsSizeIndependent(t *testing.T) {
	measure := func(n, m int, seed int64) float64 {
		t.Helper()
		w := genWorld(t, n, m, seed)
		res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{DepMode: DepModeJoint})
		if err != nil {
			t.Fatal(err)
		}
		s := NewScratch()
		warm := func() *model.Params { p := res.Params.Clone(); p.Clamp(); return p }
		opts := Options{Init: warm(), MaxIters: 2, DepMode: DepModeJoint, Scratch: s}
		if _, err := RunCtx(context.Background(), w.Dataset, VariantExt, opts); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := RunCtx(context.Background(), w.Dataset, VariantExt, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(20, 60, 17)
	large := measure(60, 480, 18)
	if small != large {
		t.Fatalf("warm fit allocs scale with dataset size: %.0f at 20×60 vs %.0f at 60×480", small, large)
	}
}

// TestPosteriorOptsScratchReuse: the plug-in re-score path
// (PosteriorOpts with a Scratch) must not reallocate kernel buffers —
// its allocation count is size-independent too.
func TestPosteriorOptsScratchReuse(t *testing.T) {
	measure := func(n, m int, seed int64) float64 {
		t.Helper()
		w := genWorld(t, n, m, seed)
		res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{DepMode: DepModeJoint})
		if err != nil {
			t.Fatal(err)
		}
		s := NewScratch()
		opts := Options{Scratch: s}
		if _, _, err := PosteriorOpts(w.Dataset, res.Params, opts); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, _, err := PosteriorOpts(w.Dataset, res.Params, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(20, 60, 23)
	large := measure(60, 480, 24)
	if small != large {
		t.Fatalf("posterior allocs scale with dataset size: %.0f at 20×60 vs %.0f at 60×480", small, large)
	}
}
