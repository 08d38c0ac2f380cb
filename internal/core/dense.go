package core

// The dense-reference kernel: a full n×m grid scan that consults the
// sparse pattern at every cell. It is the oracle half of the
// dense-reference contract — slow, structurally simple, and performing
// the exact floating-point operations of the sparse kernel in the exact
// order, so the differential suite can demand bit-identical Results.
//
// Order correspondence with the sparse kernel: within an assertion the
// claimants' corrections are applied in ascending source order (the CSC
// column order) and the silent-dependent corrections after all claimant
// corrections, so the dense scan makes two passes over the source axis
// per assertion rather than folding both memberships into one pass. In
// the M-step each stratum keeps its own accumulator, so one pass over
// the assertion axis accumulates every stratum in ascending assertion
// order — the CSR row order the sparse kernel uses.

// eStepBlockDense computes the same posteriors as eStepBlockSparse by
// scanning every source for every assertion of the block.
func (e *engine) eStepBlockDense(lo, hi int, base1, base0, logZ, log1Z float64) float64 {
	n := e.ds.N()
	ll := 0.0
	for j := lo; j < hi; j++ {
		col := e.sv.Claims.Col(j)
		depBase := int(e.sv.Claims.ColPtr[j])
		l1, l0 := base1, base0
		ck := 0
		for i := 0; i < n; i++ {
			if ck >= len(col) || int(col[ck]) != i {
				continue // cell (i, j) is zero in SC
			}
			switch {
			case e.variant == VariantExt && e.sv.ClaimDep[depBase+ck]:
				l1 += e.corrF1[i]
				l0 += e.corrG0[i]
			case e.variant == VariantSocial && e.sv.ClaimDep[depBase+ck]:
				l1 -= e.log1A[i]
				l0 -= e.log1B[i]
			default:
				l1 += e.corrA1[i]
				l0 += e.corrB0[i]
			}
			ck++
		}
		if e.variant == VariantExt {
			sil := e.sv.Silent.Col(j)
			sk := 0
			for i := 0; i < n; i++ {
				if sk < len(sil) && int(sil[sk]) == i {
					l1 += e.corrSF1[i]
					l0 += e.corrSG0[i]
					sk++
				}
			}
		}
		w1 := l1 + logZ
		w0 := l0 + log1Z
		e.post[j] = sigmoidDiff(w1, w0)
		ll += logSumExp(w1, w0)
	}
	return ll
}

// mStepBlockDense sums each source's stratum masses by scanning every
// assertion, routing each cell to its stratum accumulator.
func (e *engine) mStepBlockDense(lo, hi int, sumZ, sumY float64) {
	m := e.ds.M()
	for i := lo; i < hi; i++ {
		d0 := e.sv.ClaimsD0.Row(i)
		d1 := e.sv.ClaimsD1.Row(i)
		sil := e.sv.SilentD1.Row(i)
		var az, ay, fz, fy, sz, sy float64
		k0, k1, ks := 0, 0, 0
		for j := 0; j < m; j++ {
			z := e.post[j]
			switch {
			case k0 < len(d0) && int(d0[k0]) == j:
				az += z
				ay += 1 - z
				k0++
			case k1 < len(d1) && int(d1[k1]) == j:
				fz += z
				fy += 1 - z
				k1++
			case ks < len(sil) && int(sil[ks]) == j:
				sz += z
				sy += 1 - z
				ks++
			}
		}
		e.assembleRatios(i, az, ay, fz, fy, sz, sy, sumZ, sumY)
	}
}
