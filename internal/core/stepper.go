package core

import (
	"fmt"

	"depsense/internal/claims"
	"depsense/internal/model"
)

// KernelStepper drives the EM engine one kernel step at a time, so callers
// outside this package can measure or inspect the E-step and M-step in
// isolation. core is a clock-free zone (the estimator's results must never
// depend on wall time), so the timing itself lives with the caller — the
// hot layer of `experiments -exp bench` (internal/eval) wraps these steps
// in its own clock.
//
// A stepper holds one engine and one working parameter set; like the
// Scratch it embeds, it is exclusive to a single caller and not safe for
// concurrent use.
type KernelStepper struct {
	eng    *engine
	params *model.Params
}

// NewKernelStepper prepares a stepper over ds starting from init, which is
// cloned and clamped (the caller's value is not mutated). Options supplies
// the worker count, smoothing, and optional Scratch exactly as for Run.
func NewKernelStepper(ds *claims.Dataset, variant Variant, init *model.Params, opts Options) (*KernelStepper, error) {
	opts = opts.normalized()
	if ds.N() == 0 || ds.M() == 0 {
		return nil, ErrEmptyDataset
	}
	if err := init.Validate(); err != nil {
		return nil, fmt.Errorf("core: stepper init params: %w", err)
	}
	if init.NumSources() != ds.N() {
		return nil, fmt.Errorf("%w: init has %d sources, dataset %d",
			ErrParamsShape, init.NumSources(), ds.N())
	}
	eng := newEngine(ds, variant, opts)
	clear(eng.post) // a reused Scratch may carry a previous fit's posteriors
	p := init.Clone()
	p.Clamp()
	return &KernelStepper{eng: eng, params: p}, nil
}

// EStep refreshes the log tables from the current parameters and runs one
// E-step, updating the posteriors and returning the data log-likelihood.
func (s *KernelStepper) EStep() float64 {
	s.eng.refreshLogs(s.params)
	return s.eng.eStep(s.params)
}

// MStep recomputes the parameters from the current posteriors. The
// posteriors are whatever the last EStep left (all-zero before the first),
// so a stepper normally alternates EStep and MStep like the fit loop does.
func (s *KernelStepper) MStep() {
	s.eng.mStep(s.params)
}

// Posterior returns a copy of the current per-assertion truth posteriors.
func (s *KernelStepper) Posterior() []float64 {
	return append([]float64(nil), s.eng.post...)
}

// Params returns a copy of the current parameter set.
func (s *KernelStepper) Params() *model.Params {
	return s.params.Clone()
}
