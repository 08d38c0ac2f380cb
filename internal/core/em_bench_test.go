package core

import (
	"context"
	"fmt"
	"testing"

	"depsense/internal/randutil"
	"depsense/internal/synthetic"
)

// BenchmarkEMExt measures a full EM-Ext fit at increasing scales.
func BenchmarkEMExt(b *testing.B) {
	for _, size := range []struct{ n, m int }{{20, 50}, {50, 50}, {100, 100}, {200, 400}} {
		cfg := synthetic.EstimatorConfig()
		cfg.Sources = size.n
		cfg.Assertions = size.m
		w, err := synthetic.Generate(cfg, randutil.New(1))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d_m=%d", size.n, size.m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEMExtWorkers measures the blocked E/M-step sharding on the
// acceptance-scale world (500 sources × 2000 assertions) across worker
// counts. The iteration budget is fixed so every level does identical work;
// speedup is bounded by GOMAXPROCS.
func BenchmarkEMExtWorkers(b *testing.B) {
	cfg := synthetic.EstimatorConfig()
	cfg.Sources = 500
	cfg.Assertions = 2000
	w, err := synthetic.Generate(cfg, randutil.New(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{
					MaxIters: 3, Tol: 1e-300, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEStep isolates one E-step (the per-iteration hot path) via the
// Posterior scorer.
func BenchmarkEStep(b *testing.B) {
	cfg := synthetic.EstimatorConfig()
	cfg.Sources = 100
	cfg.Assertions = 200
	w, err := synthetic.Generate(cfg, randutil.New(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := PosteriorOpts(w.Dataset, w.TrueParams, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
