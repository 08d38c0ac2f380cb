package core

import "fmt"

// Kernel selects the estimator's hot-path implementation. Both kernels
// compute the identical floating-point operations in the identical order,
// so they produce bit-identical Results at any worker count — the
// dense-reference contract the kernelequiv differential suite enforces
// (see DESIGN.md §13). The sparse kernel is the production default; the
// dense kernel exists as the slow, obviously-correct oracle and as the
// baseline the hot layer of `experiments -exp bench` times against.
type Kernel int

// Kernel implementations.
const (
	// KernelSparse iterates only the nonzeros of SC and D through the
	// flattened CSR/CSC view (claims.SparseView): O(n + m + nnz) per
	// E-step, O(m + nnz) per M-step.
	KernelSparse Kernel = iota
	// KernelDense scans the full n×m grid, consulting the sparse pattern
	// at every cell: O(n·m) per E-step and M-step. Reference only.
	KernelDense
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case KernelSparse:
		return "sparse"
	case KernelDense:
		return "dense"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// eStepBlock computes posteriors and the log-likelihood partial for the
// assertion block [lo, hi) under the selected kernel. The sparse kernel
// reads and writes pm, which is nil unless the blocks run serially.
func (e *engine) eStepBlock(lo, hi int, base1, base0, logZ, log1Z float64, pm *postMemo) float64 {
	if e.kernel == KernelDense {
		return e.eStepBlockDense(lo, hi, base1, base0, logZ, log1Z)
	}
	return e.eStepBlockSparse(lo, hi, base1, base0, logZ, log1Z, pm)
}

// mStepBlock sums each source's stratum masses and writes the Eq. (10)-(13)
// numerator/denominator slots for the source block [lo, hi).
func (e *engine) mStepBlock(lo, hi int, sumZ, sumY float64) {
	if e.kernel == KernelDense {
		e.mStepBlockDense(lo, hi, sumZ, sumY)
		return
	}
	e.mStepBlockSparse(lo, hi, sumZ, sumY)
}

// eStepBlockSparse is the production E-step inner loop: each assertion
// starts from the shared all-silent baseline and applies one correction
// per nonzero of its SC column, then one per silent-dependent pair. The
// variant switch is hoisted out of the column loop so each inner loop
// stays branch-light, and posteriorLSE, through the posterior memo pm,
// turns the two log-weights into the posterior and the log-likelihood term
// with one exponential.
func (e *engine) eStepBlockSparse(lo, hi int, base1, base0, logZ, log1Z float64, pm *postMemo) float64 {
	var (
		colPtr = e.sv.Claims.ColPtr
		rows   = e.sv.Claims.Row
		dep    = e.sv.ClaimDep
		silPtr = e.sv.Silent.ColPtr
		silRow = e.sv.Silent.Row
		post   = e.post
		ll     = 0.0
	)
	switch e.variant {
	case VariantExt:
		corrA1, corrB0 := e.corrA1, e.corrB0
		corrF1, corrG0 := e.corrF1, e.corrG0
		corrSF1, corrSG0 := e.corrSF1, e.corrSG0
		for j := lo; j < hi; j++ {
			l1, l0 := base1, base0
			for k := colPtr[j]; k < colPtr[j+1]; k++ {
				i := rows[k]
				if dep[k] {
					l1 += corrF1[i]
					l0 += corrG0[i]
				} else {
					l1 += corrA1[i]
					l0 += corrB0[i]
				}
			}
			for k := silPtr[j]; k < silPtr[j+1]; k++ {
				i := silRow[k]
				l1 += corrSF1[i]
				l0 += corrSG0[i]
			}
			p, lse := pm.posteriorLSE(l1+logZ, l0+log1Z)
			post[j] = p
			ll += lse
		}
	case VariantSocial:
		corrA1, corrB0 := e.corrA1, e.corrB0
		log1A, log1B := e.log1A, e.log1B
		for j := lo; j < hi; j++ {
			l1, l0 := base1, base0
			for k := colPtr[j]; k < colPtr[j+1]; k++ {
				i := rows[k]
				if dep[k] {
					// Pair unobserved: remove the baseline silent factor.
					l1 -= log1A[i]
					l0 -= log1B[i]
				} else {
					l1 += corrA1[i]
					l0 += corrB0[i]
				}
			}
			p, lse := pm.posteriorLSE(l1+logZ, l0+log1Z)
			post[j] = p
			ll += lse
		}
	default: // VariantIndependent: dependency indicators ignored
		corrA1, corrB0 := e.corrA1, e.corrB0
		for j := lo; j < hi; j++ {
			l1, l0 := base1, base0
			for k := colPtr[j]; k < colPtr[j+1]; k++ {
				i := rows[k]
				l1 += corrA1[i]
				l0 += corrB0[i]
			}
			p, lse := pm.posteriorLSE(l1+logZ, l0+log1Z)
			post[j] = p
			ll += lse
		}
	}
	return ll
}

// mStepBlockSparse accumulates each source's stratum masses over its CSR
// rows — independent claims, dependent claims, silent-dependent pairs, in
// ascending assertion order, matching the dense kernel's per-stratum
// accumulation order exactly. Only VariantExt reads the silent-dependent
// masses, so the other variants skip that row.
func (e *engine) mStepBlockSparse(lo, hi int, sumZ, sumY float64) {
	var (
		d0Ptr, d0Col = e.sv.ClaimsD0.RowPtr, e.sv.ClaimsD0.Col
		d1Ptr, d1Col = e.sv.ClaimsD1.RowPtr, e.sv.ClaimsD1.Col
		sPtr, sCol   = e.sv.SilentD1.RowPtr, e.sv.SilentD1.Col
		post         = e.post
		ext          = e.variant == VariantExt
	)
	for i := lo; i < hi; i++ {
		var az, ay float64
		for k := d0Ptr[i]; k < d0Ptr[i+1]; k++ {
			z := post[d0Col[k]]
			az += z
			ay += 1 - z
		}
		var fz, fy float64
		for k := d1Ptr[i]; k < d1Ptr[i+1]; k++ {
			z := post[d1Col[k]]
			fz += z
			fy += 1 - z
		}
		var sz, sy float64
		if ext {
			for k := sPtr[i]; k < sPtr[i+1]; k++ {
				z := post[sCol[k]]
				sz += z
				sy += 1 - z
			}
		}
		e.assembleRatios(i, az, ay, fz, fy, sz, sy, sumZ, sumY)
	}
}

// assembleRatios fills the Eq. (10)-(13) numerator/denominator slots of
// source i, per variant, from its posterior masses: Z carries P(true) and
// Y P(false) mass over its independent claims (a), dependent claims (f)
// and silent-dependent pairs (s). Shared by both kernels.
func (e *engine) assembleRatios(i int, az, ay, fz, fy, sz, sy, sumZ, sumY float64) {
	switch e.variant {
	case VariantExt:
		depZ := fz + sz
		depY := fy + sy
		e.nums[i] = [4]float64{az, ay, fz, fy}
		e.dens[i] = [4]float64{sumZ - depZ, sumY - depY, depZ, depY}
	case VariantIndependent:
		e.nums[i] = [4]float64{az + fz, ay + fy}
		e.dens[i] = [4]float64{sumZ, sumY}
	case VariantSocial:
		e.nums[i] = [4]float64{az, ay}
		e.dens[i] = [4]float64{sumZ - fz, sumY - fy}
	}
}
