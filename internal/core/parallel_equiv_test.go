package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"depsense/internal/factfind"
)

// requireBitIdentical asserts two EM results are equal field by field with
// exact float comparison — the determinism contract of Options.Workers.
func requireBitIdentical(t *testing.T, serial, par *factfind.Result) {
	t.Helper()
	if len(serial.Posterior) != len(par.Posterior) {
		t.Fatalf("posterior lengths differ: %d vs %d", len(serial.Posterior), len(par.Posterior))
	}
	for j := range serial.Posterior {
		if serial.Posterior[j] != par.Posterior[j] {
			t.Fatalf("posterior[%d] differs: %v vs %v", j, serial.Posterior[j], par.Posterior[j])
		}
	}
	if serial.LogLikelihood != par.LogLikelihood {
		t.Fatalf("log-likelihood differs: %v vs %v", serial.LogLikelihood, par.LogLikelihood)
	}
	if serial.Iterations != par.Iterations || serial.Converged != par.Converged || serial.Stopped != par.Stopped {
		t.Fatalf("run shape differs: (%d,%t,%q) vs (%d,%t,%q)",
			serial.Iterations, serial.Converged, serial.Stopped,
			par.Iterations, par.Converged, par.Stopped)
	}
	if !reflect.DeepEqual(serial.Params, par.Params) {
		t.Fatalf("estimated parameters differ:\nserial: %+v\npar:    %+v", serial.Params, par.Params)
	}
}

// TestWorkersEquivalenceSingleRun: the blocked E/M steps must be bit-for-bit
// identical at any worker count, for every variant.
func TestWorkersEquivalenceSingleRun(t *testing.T) {
	w := genWorld(t, 25, 80, 41)
	for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
		serial, err := RunCtx(context.Background(), w.Dataset, v, Options{})
		if err != nil {
			t.Fatalf("%v serial: %v", v, err)
		}
		for _, workers := range []int{2, 8} {
			par, err := RunCtx(context.Background(), w.Dataset, v, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", v, workers, err)
			}
			requireBitIdentical(t, serial, par)
		}
	}
}

// TestWorkersEquivalenceCancelMidRun: cancelling at a deterministic
// iteration checkpoint must yield the same partial state regardless of
// Workers — partial results are part of the determinism contract.
func TestWorkersEquivalenceCancelMidRun(t *testing.T) {
	w := genWorld(t, 20, 60, 29)
	run := func(workers int) *factfind.Result {
		ctx, _ := cancelAfter(t, 3)
		res, err := RunCtx(ctx, w.Dataset, VariantExt, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d err = %v", workers, err)
		}
		if res.Iterations != 3 {
			t.Fatalf("workers=%d stopped after %d iterations, want 3", workers, res.Iterations)
		}
		return res
	}
	serial := run(1)
	par := run(8)
	requireBitIdentical(t, serial, par)
}
