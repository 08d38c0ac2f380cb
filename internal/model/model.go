// Package model defines the probabilistic source model from Section II of
// the paper: each source is a four-parameter noisy binary channel whose
// emission probabilities depend on the (latent) truth of an assertion and on
// whether the source's claim is dependent (an ancestor asserted the same
// thing first). The parameter set θ collects the per-source channels plus
// the prior probability z that a generic assertion is true.
package model

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ProbEpsilon is the clamp applied to all model probabilities so that
// likelihoods stay finite: every probability is kept in
// [ProbEpsilon, 1-ProbEpsilon].
const ProbEpsilon = 1e-6

// SourceParams is the per-source channel θ_i = {a_i, b_i, f_i, g_i}.
//
//	A = P(S_iC_j = 1 | C_j = 1, D_ij = 0)  — true independent claims
//	B = P(S_iC_j = 1 | C_j = 0, D_ij = 0)  — false independent claims
//	F = P(S_iC_j = 1 | C_j = 1, D_ij = 1)  — true dependent claims
//	G = P(S_iC_j = 1 | C_j = 0, D_ij = 1)  — false dependent claims
type SourceParams struct {
	A float64 `json:"a"`
	B float64 `json:"b"`
	F float64 `json:"f"`
	G float64 `json:"g"`
}

// PClaim returns P(S_iC_j = claimed | C_j = truth, D_ij = dependent), the
// entry of Table II selected by (truth, dependent, claimed).
func (p SourceParams) PClaim(claimed, truth, dependent bool) float64 {
	var on float64
	switch {
	case truth && !dependent:
		on = p.A
	case !truth && !dependent:
		on = p.B
	case truth && dependent:
		on = p.F
	default:
		on = p.G
	}
	if claimed {
		return on
	}
	return 1 - on
}

// Reliability returns the paper's posterior source reliability
//
//	t_i = a_i z / (a_i z + b_i (1 − z)),
//
// the probability that an independent claim by this source is true under
// prior z. Unlike the raw rate a_i — which scales with how often the
// source tweets at all — t_i is scale-free, which makes it the right
// per-source trajectory for drift detection (internal/qual). A degenerate
// channel (both rates zero) returns 0.
func (p SourceParams) Reliability(z float64) float64 {
	den := p.A*z + p.B*(1-z)
	if den <= 0 {
		return 0
	}
	return p.A * z / den
}

// Clamp returns a copy with every probability forced into
// [ProbEpsilon, 1-ProbEpsilon].
func (p SourceParams) Clamp() SourceParams {
	return SourceParams{
		A: ClampProb(p.A),
		B: ClampProb(p.B),
		F: ClampProb(p.F),
		G: ClampProb(p.G),
	}
}

// Validate reports an error if any parameter is outside [0, 1] or NaN.
func (p SourceParams) Validate() error {
	for _, v := range [...]struct {
		name string
		val  float64
	}{{"a", p.A}, {"b", p.B}, {"f", p.F}, {"g", p.G}} {
		if math.IsNaN(v.val) || v.val < 0 || v.val > 1 {
			return fmt.Errorf("model: parameter %s = %v out of [0,1]", v.name, v.val)
		}
	}
	return nil
}

// Params is the full unknown set θ: one SourceParams per source plus the
// prior z = P(C_j = 1).
type Params struct {
	Sources []SourceParams `json:"sources"`
	Z       float64        `json:"z"`
}

// ErrNoSources is returned by Validate for a parameter set with no sources.
var ErrNoSources = errors.New("model: parameter set has no sources")

// NewParams allocates a parameter set for n sources with all probabilities
// zeroed and the given prior.
func NewParams(n int, z float64) *Params {
	return &Params{Sources: make([]SourceParams, n), Z: z}
}

// NumSources returns the number of sources the parameter set covers.
func (p *Params) NumSources() int { return len(p.Sources) }

// Validate checks structural sanity: at least one source, all probabilities
// in range.
func (p *Params) Validate() error {
	if len(p.Sources) == 0 {
		return ErrNoSources
	}
	if math.IsNaN(p.Z) || p.Z < 0 || p.Z > 1 {
		return fmt.Errorf("model: prior z = %v out of [0,1]", p.Z)
	}
	for i, s := range p.Sources {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("source %d: %w", i, err)
		}
	}
	return nil
}

// Clone returns a deep copy. The EM estimators mutate their working copy in
// place and must not alias caller-provided initial parameters.
func (p *Params) Clone() *Params {
	cp := &Params{Sources: make([]SourceParams, len(p.Sources)), Z: p.Z}
	copy(cp.Sources, p.Sources)
	return cp
}

// Clamp forces every probability into [ProbEpsilon, 1-ProbEpsilon] in place.
func (p *Params) Clamp() {
	p.Z = ClampProb(p.Z)
	for i := range p.Sources {
		p.Sources[i] = p.Sources[i].Clamp()
	}
}

// InformedInitParams draws a random but label-identified initialization:
// each source's true-claim probabilities (A, F) are drawn above its
// false-claim probabilities (B, G). Truth-discovery EM has a global
// label-switching symmetry (swap truth labels and all (A,B),(F,G) pairs);
// starting in the "sources are better than chance" basin is the standard
// way estimators in this literature break it.
func InformedInitParams(rng *rand.Rand, n int) *Params {
	p := NewParams(n, 0.3+0.4*rng.Float64())
	for i := range p.Sources {
		hi := 0.5 + 0.5*rng.Float64()
		lo := 0.5 * rng.Float64()
		hiDep := 0.5 + 0.5*rng.Float64()
		loDep := 0.5 * rng.Float64()
		p.Sources[i] = SourceParams{A: hi, B: lo, F: hiDep, G: loDep}
	}
	p.Clamp()
	return p
}

// ClampProb forces one probability into [ProbEpsilon, 1-ProbEpsilon],
// mapping NaN to 0.5 so that a degenerate M-step cannot poison the next
// E-step.
func ClampProb(v float64) float64 {
	if math.IsNaN(v) {
		return 0.5
	}
	if v < ProbEpsilon {
		return ProbEpsilon
	}
	if v > 1-ProbEpsilon {
		return 1 - ProbEpsilon
	}
	return v
}
