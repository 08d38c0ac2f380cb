package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"depsense/internal/claims"
	"depsense/internal/runctx"
)

// coldFitTol bounds how far a converged cold (SQUAREM) fit's posteriors
// may lie from the plain map's fixed point from the same vote start, run to
// Tol 1e-10. Measured: largest 1.1e-3 (n5_m12, EM, smoothing off); 2.6e-4
// at the default smoothing. A plain fit stopped at the defaults (Tol 1e-6,
// at most 200 iterations) lies up to 0.11 away on the same datasets.
const coldFitTol = 2e-3

// coldFitModeSwitches are the measured cases where SQUAREM converges to a
// different fixed point of the map than the plain iteration from the same
// start: extrapolation crossed into another basin. Each must still
// converge; a new case fails TestColdFitFixedPoint.
var coldFitModeSwitches = map[string]string{
	// Smoothing off: log-likelihood -1356.34 against the plain fit's
	// -1354.80; 13 of 160 decisions differ.
	"n64_m160/EM-Social/s-1": "other basin, lower log-likelihood",
	// Log-likelihood -1213.12 against the plain fit's -1213.60; 4 of 50
	// decisions differ.
	"world40_6/EM/s0": "other basin, higher log-likelihood",
}

// TestColdFitFixedPoint: a cold fit run to convergence lands within
// coldFitTol of the plain map's fixed point from the same vote start, on
// every reference dataset (smoothing on and off) and on forty dense
// synthetic worlds (n = 20–50, m = 50), for every variant; on the dense
// worlds its 0.5-decisions are identical.
func TestColdFitFixedPoint(t *testing.T) {
	type fitCase struct {
		name      string
		ds        *claims.Dataset
		smoothing float64
		dense     bool
	}
	var cases []fitCase
	for name, ds := range referenceDatasets(t) {
		cases = append(cases, fitCase{name, ds, 0, false}, fitCase{name, ds, -1, false})
	}
	for _, n := range []int{20, 30, 40, 50} {
		for seed := int64(1); seed <= 10; seed++ {
			w := genWorld(t, n, 50, 1000*int64(n)+seed)
			cases = append(cases, fitCase{fmt.Sprintf("world%d_%d", n, seed), w.Dataset, 0, true})
		}
	}
	switches := 0
	for _, c := range cases {
		for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
			id := fmt.Sprintf("%s/%v/s%v", c.name, v, c.smoothing)
			got, err := RunCtx(context.Background(), c.ds, v, Options{DepMode: DepModeJoint, Smoothing: c.smoothing, MaxIters: 10_000})
			if err != nil {
				t.Fatal(err)
			}
			want := PlainColdFit(c.ds, v, Options{Smoothing: c.smoothing, Tol: 1e-10, MaxIters: 1_000_000})
			if !got.Converged || !want.Converged {
				t.Fatalf("%s: converged SQUAREM %v, plain %v", id, got.Converged, want.Converged)
			}
			if reason, ok := coldFitModeSwitches[id]; ok {
				switches++
				t.Logf("%s: %s (log-likelihood %.4f, plain %.4f)", id, reason, got.LogLikelihood, want.LogLikelihood)
				continue
			}
			worst, flips := 0.0, 0
			for j, p := range want.Posterior {
				worst = math.Max(worst, math.Abs(got.Posterior[j]-p))
				if (got.Posterior[j] >= 0.5) != (p >= 0.5) {
					flips++
				}
			}
			if worst > coldFitTol {
				t.Errorf("%s: posteriors %.3g from the plain fixed point, tolerance %g", id, worst, coldFitTol)
			}
			if c.dense && flips > 0 {
				t.Errorf("%s: %d 0.5-decisions differ from the plain fixed point", id, flips)
			}
		}
	}
	if switches != len(coldFitModeSwitches) {
		t.Errorf("ran %d of the %d listed mode switches", switches, len(coldFitModeSwitches))
	}
}

// TestColdFitJumpsCoverEveryDecrease: with smoothing off every plain map
// is an exact EM step and cannot lose log-likelihood, so in a cold fit
// every decrease must land on a map marked Jump — an extrapolated point or
// the restart after a rejected one.
func TestColdFitJumpsCoverEveryDecrease(t *testing.T) {
	jumps := 0
	for name, ds := range referenceDatasets(t) {
		for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
			var its []runctx.Iteration
			ctx := runctx.WithHook(context.Background(), func(it runctx.Iteration) { its = append(its, it) })
			if _, err := RunCtx(ctx, ds, v, Options{DepMode: DepModeJoint, Smoothing: -1}); err != nil {
				t.Fatal(err)
			}
			for k := 1; k < len(its); k++ {
				if its[k].Jump {
					jumps++
					continue
				}
				if drop := its[k-1].LogLikelihood - its[k].LogLikelihood; drop > 1e-9*math.Abs(its[k].LogLikelihood) {
					t.Errorf("%s/%v: map %d lost %.3g log-likelihood without a jump", name, v, its[k].N, drop)
				}
			}
		}
	}
	if jumps == 0 {
		t.Error("no cold fit marked a jump")
	}
}
