package core

import "depsense/internal/parallel"

// Scratch holds every buffer the EM kernels touch per iteration: the
// per-source log tables and correction tables, the posterior vector, the
// M-step numerators/denominators, and the per-block reduction partials. A run
// without an explicit Scratch allocates one internally (the historical
// behaviour); callers on a refit loop — the stream estimator's warm
// refits, the plug-in re-score, benchmark harnesses — pass one through
// Options.Scratch so consecutive fits reuse the same memory and the
// serial kernel iteration allocates nothing at all.
//
// A Scratch is exclusive to one running fit: it must not be shared by
// concurrent runs. Intra-run E/M-step parallelism is fine, since all
// workers of one run share one engine by design. Buffers grow
// monotonically and every entry a fit reads is written by that fit first,
// so reuse across datasets of different shapes is safe.
type Scratch struct {
	// Per-source log tables, refreshed each iteration. Only the silent
	// factors log(1-a_i), log(1-b_i) are kept whole: everything else the
	// E-step needs is folded into the correction tables below.
	log1A, log1B []float64

	// Per-source sparse-correction tables: what one nonzero of SC (or of
	// the silent-dependent pattern) adds to the all-silent baseline, per
	// hypothesis. corrA1 = log a_i - log(1-a_i) (independent claim, C=1),
	// corrB0 the same under C=0; corrF1/corrG0 for dependent claims;
	// corrSF1/corrSG0 for silent-dependent pairs.
	//
	// refreshLogs writes an entry only where this variant's E-step reads
	// it: corrA1/corrB0 for a source with an independent claim (any claim
	// under VariantIndependent), and — under VariantExt only —
	// corrF1/corrG0 for a source with a dependent claim and
	// corrSF1/corrSG0 for one with a silent-dependent pair. Every other
	// entry is stale, left by an earlier iteration, variant or dataset,
	// and neither kernel ever reads it.
	corrA1, corrB0   []float64
	corrF1, corrG0   []float64
	corrSF1, corrSG0 []float64

	post []float64 // Z_j = P(C_j = 1 | SC_j; θ)

	// Per-block reduction partials (E-step log-likelihood, M-step posterior
	// mass) and per-source M-step numerators/denominators.
	llPart, zPart []float64
	nums, dens    [][4]float64
}

// NewScratch returns an empty Scratch; buffers are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// grow (re)sizes every buffer for an n-source, m-assertion dataset. Slices
// keep their backing arrays whenever capacity suffices, so repeated fits at
// a stable problem size never reallocate.
func (s *Scratch) grow(n, m int) {
	growTo(&s.log1A, n)
	growTo(&s.log1B, n)
	growTo(&s.corrA1, n)
	growTo(&s.corrB0, n)
	growTo(&s.corrF1, n)
	growTo(&s.corrG0, n)
	growTo(&s.corrSF1, n)
	growTo(&s.corrSG0, n)
	growTo(&s.post, m)
	growTo(&s.llPart, parallel.Blocks(m, emBlockSize))
	growTo(&s.zPart, parallel.Blocks(m, emBlockSize))
	if cap(s.nums) < n {
		s.nums = make([][4]float64, n)
		s.dens = make([][4]float64, n)
	} else {
		s.nums = s.nums[:n]
		s.dens = s.dens[:n]
	}
}

func growTo(sl *[]float64, size int) {
	if cap(*sl) < size {
		*sl = make([]float64, size)
	} else {
		*sl = (*sl)[:size]
	}
}
