package core

// eStepBlock computes posteriors and the log-likelihood partial for the
// assertion block [lo, hi): each assertion starts from the shared
// all-silent baseline and applies one correction per nonzero of its SC
// column, then one per silent-dependent pair, so the block costs
// O(hi − lo + nnz), never a scan of the source axis. The variant switch is
// hoisted out of the column loop so each inner loop stays branch-light, and
// posteriorLSE, through the posterior memo pm, turns the two log-weights
// into the posterior and the log-likelihood term with one exponential. pm
// is nil unless the blocks run serially.
func (e *engine) eStepBlock(lo, hi int, base1, base0, logZ, log1Z float64, pm *postMemo) float64 {
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

// mStepBlock sums each source's stratum masses over its CSR rows —
// independent claims, dependent claims, silent-dependent pairs, each in
// ascending assertion order — and writes the Eq. (10)-(13)
// numerator/denominator slots for the source block [lo, hi), in
// O(hi − lo + nnz). Only VariantExt reads the silent-dependent masses, so
// the other variants skip that row.
func (e *engine) mStepBlock(lo, hi int, sumZ, sumY float64) {
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
// and silent-dependent pairs (s).
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
