package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"depsense/internal/claims"
	"depsense/internal/depgraph"
	"depsense/internal/factfind"
	"depsense/internal/model"
	"depsense/internal/randutil"
	"depsense/internal/runctx"
	"depsense/internal/twittersim"
)

// The iteration reference: the EM loop as it stood before the production
// kernel learned to skip log-table entries nothing reads, to check
// convergence inside the M-step and to fuse the E-step's two exponentials.
// It fills all eight per-source tables every iteration, stages the M-step
// through explicit stratum masses, writes parameters through a pointer
// table, and tests convergence with a separate max-|Δθ| pass against a
// snapshot. A vote-initialized run iterates refSquarem, the cold fit's
// SQUAREM cycles written over a pointer table of whole vectors.
// TestIterationMatchesReference demands that production reproduces it
// byte for byte.

// refEngine is the serial reference estimator over a dataset's sparse view.
type refEngine struct {
	ds        *claims.Dataset
	sv        *claims.SparseView
	variant   Variant
	smooth    float64
	smoothDep float64

	log1A, log1B, corrA1, corrB0, corrF1, corrG0, corrSF1, corrSG0 []float64

	post                                       []float64
	massAZ, massAY, massFZ, massFY, silZ, silY []float64
	nums, dens                                 [][4]float64
}

func newRefEngine(ds *claims.Dataset, variant Variant, opts Options) *refEngine {
	n, m := ds.N(), ds.M()
	e := &refEngine{ds: ds, sv: ds.Sparse(), variant: variant, smooth: opts.Smoothing}
	if opts.Smoothing > 0 {
		e.smoothDep = depSmoothing
	}
	for _, buf := range []*[]float64{
		&e.log1A, &e.log1B, &e.corrA1, &e.corrB0, &e.corrF1, &e.corrG0, &e.corrSF1, &e.corrSG0,
		&e.massAZ, &e.massAY, &e.massFZ, &e.massFY, &e.silZ, &e.silY,
	} {
		*buf = make([]float64, n)
	}
	e.post = make([]float64, m)
	e.nums = make([][4]float64, n)
	e.dens = make([][4]float64, n)
	return e
}

// refreshLogs fills every table entry for every source.
func (e *refEngine) refreshLogs(p *model.Params) {
	for i, s := range p.Sources {
		la, l1a := model.SafeLog(s.A), model.SafeLog(1-s.A)
		lb, l1b := model.SafeLog(s.B), model.SafeLog(1-s.B)
		lf, l1f := model.SafeLog(s.F), model.SafeLog(1-s.F)
		lg, l1g := model.SafeLog(s.G), model.SafeLog(1-s.G)
		e.log1A[i] = l1a
		e.log1B[i] = l1b
		e.corrA1[i] = la - l1a
		e.corrB0[i] = lb - l1b
		e.corrF1[i] = lf - l1a
		e.corrG0[i] = lg - l1b
		e.corrSF1[i] = l1f - l1a
		e.corrSG0[i] = l1g - l1b
	}
}

// eStep is the unfused sparse E-step, summed in the production block order.
func (e *refEngine) eStep(p *model.Params) float64 {
	var base1, base0 float64
	for i := range e.log1A {
		base1 += e.log1A[i]
		base0 += e.log1B[i]
	}
	logZ, log1Z := model.SafeLog(p.Z), model.SafeLog(1-p.Z)
	colPtr, rows, dep := e.sv.Claims.ColPtr, e.sv.Claims.Row, e.sv.ClaimDep
	silPtr, silRow := e.sv.Silent.ColPtr, e.sv.Silent.Row
	ll, block := 0.0, 0.0
	for j := 0; j < e.ds.M(); j++ {
		l1, l0 := base1, base0
		for k := colPtr[j]; k < colPtr[j+1]; k++ {
			i := rows[k]
			switch {
			case e.variant == VariantExt && dep[k]:
				l1 += e.corrF1[i]
				l0 += e.corrG0[i]
			case e.variant == VariantSocial && dep[k]:
				l1 -= e.log1A[i]
				l0 -= e.log1B[i]
			default:
				l1 += e.corrA1[i]
				l0 += e.corrB0[i]
			}
		}
		if e.variant == VariantExt {
			for k := silPtr[j]; k < silPtr[j+1]; k++ {
				i := silRow[k]
				l1 += e.corrSF1[i]
				l0 += e.corrSG0[i]
			}
		}
		w1, w0 := l1+logZ, l0+log1Z
		e.post[j] = sigmoidDiff(w1, w0)
		block += logSumExp(w1, w0)
		if (j+1)%emBlockSize == 0 || j+1 == e.ds.M() {
			ll += block
			block = 0
		}
	}
	return ll
}

// mStep stages the stratum masses, then the ratios, then the pooled
// shrinkage, then writes each parameter through a pointer table.
func (e *refEngine) mStep(p *model.Params) {
	n, m := e.ds.N(), e.ds.M()
	sumZ, block := 0.0, 0.0
	for j := 0; j < m; j++ {
		block += e.post[j]
		if (j+1)%emBlockSize == 0 || j+1 == m {
			sumZ += block
			block = 0
		}
	}
	sumY := float64(m) - sumZ
	for i := 0; i < n; i++ {
		var az, ay, fz, fy, sz, sy float64
		for _, j := range e.sv.ClaimsD0.Row(i) {
			az += e.post[j]
			ay += 1 - e.post[j]
		}
		for _, j := range e.sv.ClaimsD1.Row(i) {
			fz += e.post[j]
			fy += 1 - e.post[j]
		}
		for _, j := range e.sv.SilentD1.Row(i) {
			sz += e.post[j]
			sy += 1 - e.post[j]
		}
		e.massAZ[i], e.massAY[i] = az, ay
		e.massFZ[i], e.massFY[i] = fz, fy
		e.silZ[i], e.silY[i] = sz, sy
		var num, den [4]float64
		switch e.variant {
		case VariantExt:
			depZ := e.massFZ[i] + e.silZ[i]
			depY := e.massFY[i] + e.silY[i]
			num = [4]float64{e.massAZ[i], e.massAY[i], e.massFZ[i], e.massFY[i]}
			den = [4]float64{sumZ - depZ, sumY - depY, depZ, depY}
		case VariantIndependent:
			num = [4]float64{e.massAZ[i] + e.massFZ[i], e.massAY[i] + e.massFY[i]}
			den = [4]float64{sumZ, sumY}
		case VariantSocial:
			num = [4]float64{e.massAZ[i], e.massAY[i]}
			den = [4]float64{sumZ - e.massFZ[i], sumY - e.massFY[i]}
		}
		e.nums[i], e.dens[i] = num, den
	}
	var poolNum, poolDen, pooled, shrink [4]float64
	for i := 0; i < n; i++ {
		for c := 0; c < 4; c++ {
			poolNum[c] += e.nums[i][c]
			poolDen[c] += e.dens[i][c]
		}
	}
	for c := 0; c < 4; c++ {
		pooled[c] = 0.5
		if poolDen[c] > 0 {
			pooled[c] = poolNum[c] / poolDen[c]
		}
		shrink[c] = e.smooth
		if c >= 2 {
			shrink[c] = e.smoothDep
		}
	}
	for i := range p.Sources {
		s := &p.Sources[i]
		dst := [4]*float64{&s.A, &s.B, &s.F, &s.G}
		for c := 0; c < 4; c++ {
			if e.variant != VariantExt && c >= 2 {
				break
			}
			den := e.dens[i][c] + shrink[c]
			if den <= 1e-12 {
				continue
			}
			*dst[c] = model.ClampProb((e.nums[i][c] + shrink[c]*pooled[c]) / den)
		}
		if e.variant == VariantIndependent {
			s.F, s.G = s.A, s.B
		}
	}
	p.Z = model.ClampProb(sumZ / float64(m))
}

// refMaxAbsDiff is the separate convergence pass over all 4n+1 parameters.
func refMaxAbsDiff(p, q *model.Params) float64 {
	d := math.Abs(p.Z - q.Z)
	for i := range p.Sources {
		a, b := p.Sources[i], q.Sources[i]
		for _, v := range [...]float64{a.A - b.A, a.B - b.B, a.F - b.F, a.G - b.G} {
			if av := math.Abs(v); av > d {
				d = av
			}
		}
	}
	return d
}

// refRun mirrors RunCtx's dispatch: explicit Init, the plug-in path, or a
// vote-initialized joint run.
func refRun(ds *claims.Dataset, variant Variant, opts Options) *factfind.Result {
	opts = opts.normalized()
	if opts.Init != nil {
		return refOnce(ds, variant, opts.Init.Clone(), nil, opts)
	}
	if variant == VariantExt && depMode(ds, opts) == DepModePlugin {
		coarse := refRun(ds, VariantSocial, opts)
		params := coarse.Params.Clone()
		f, g := PooledDependentChannel(ds, coarse.Posterior)
		for i := range params.Sources {
			params.Sources[i].F, params.Sources[i].G = f, g
		}
		e := newRefEngine(ds, VariantExt, opts)
		e.refreshLogs(params)
		ll := e.eStep(params)
		return &factfind.Result{
			Posterior: e.post, Params: params, Iterations: coarse.Iterations + 1,
			Converged: coarse.Converged, LogLikelihood: ll, Stopped: coarse.Stopped,
		}
	}
	return refOnce(ds, variant, model.NewParams(ds.N(), 0.5), votePosteriors(ds), opts)
}

func refOnce(ds *claims.Dataset, variant Variant, params *model.Params, seedPost []float64, opts Options) *factfind.Result {
	e := newRefEngine(ds, variant, opts)
	params.Clamp()
	var iter int
	var converged bool
	// mapped applies one map unless the cap is spent, counting it, and
	// reports whether the fit stops.
	mapped := func() bool {
		if iter == opts.MaxIters {
			return true
		}
		iter++
		prev := params.Clone()
		e.refreshLogs(params)
		e.eStep(params)
		e.mStep(params)
		converged = refMaxAbsDiff(params, prev) < opts.Tol
		return converged
	}
	if seedPost != nil {
		copy(e.post, seedPost)
		e.mStep(params)
		refSquarem(params, variant, mapped)
	} else {
		for !mapped() {
		}
	}
	e.refreshLogs(params)
	ll := e.eStep(params)
	return &factfind.Result{
		Posterior: e.post, Params: params, Iterations: iter,
		Converged: converged, LogLikelihood: ll, Stopped: runctx.StopOf(converged),
	}
}

// refSquarem is the cold fit's SQUAREM loop written over a pointer table
// of the variant's free parameters, with r, v and θ′ kept as whole
// vectors and the step clamped through math.Min/Max.
func refSquarem(params *model.Params, variant Variant, mapped func() bool) {
	theta := []*float64{&params.Z}
	for i := range params.Sources {
		s := &params.Sources[i]
		theta = append(theta, &s.A, &s.B)
		if variant == VariantExt {
			theta = append(theta, &s.F, &s.G)
		}
	}
	get := func() []float64 {
		x := make([]float64, len(theta))
		for k, ptr := range theta {
			x[k] = *ptr
		}
		return x
	}
	set := func(x []float64) {
		for k, ptr := range theta {
			*ptr = x[k]
		}
		if variant == VariantIndependent {
			for i := range params.Sources {
				s := &params.Sources[i]
				s.F, s.G = s.A, s.B
			}
		}
	}
	alphaMax := 1.0
	x0 := get()
	for {
		if mapped() {
			return
		}
		x1 := get()
		if mapped() {
			return
		}
		x2 := get()
		r, v, xp := make([]float64, len(x0)), make([]float64, len(x0)), make([]float64, len(x0))
		var rr, vv float64
		for k := range x0 {
			r[k] = x1[k] - x0[k]
			v[k] = x2[k] - x1[k] - r[k]
			rr += r[k] * r[k]
			vv += v[k] * v[k]
		}
		alpha := -math.Sqrt(rr / vv)
		if math.IsNaN(alpha) {
			alpha = -1
		}
		alpha = math.Max(-alphaMax, math.Min(-1, alpha))
		for k := range x0 {
			xp[k] = model.ClampProb(x0[k] - 2*alpha*r[k] + alpha*alpha*v[k])
		}
		set(xp)
		if mapped() {
			return
		}
		xf := get()
		res := 0.0
		for k := range xf {
			res += (xf[k] - xp[k]) * (xf[k] - xp[k])
		}
		if res <= rr {
			if alpha == -alphaMax {
				alphaMax *= 4
			}
			x0 = xf
		} else {
			alphaMax = math.Max(1, alphaMax/4)
			set(x2)
			x0 = x2
		}
	}
}

// referenceDatasets returns a dense synthetic dataset, a sparse
// twittersim-derived one and the kernelGrid datasets, after checking that
// between them they hold sources with only dependent claims, sources with
// only silent-dependent pairs, and sources with neither — the patterns
// whose table entries the production refresh skips.
func referenceDatasets(t *testing.T) map[string]*claims.Dataset {
	t.Helper()
	tw, err := twittersim.Generate(twittersim.Small("Ukraine", 60), randutil.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// Every simulated user tweets, so silence one user in five: those
	// keep their follow edges, and with them silent-dependent pairs,
	// but claim nothing.
	var events []depgraph.Event
	for _, ev := range tw.Events() {
		if ev.Source%5 != 4 {
			events = append(events, ev)
		}
	}
	sparse, err := depgraph.BuildDataset(tw.Graph, events, len(tw.Kinds))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*claims.Dataset{"dense": genWorld(t, 30, 90, 41).Dataset, "sparse": sparse}
	for _, tc := range kernelGrid {
		out[fmt.Sprintf("n%d_m%d", tc.n, tc.m)] = buildRandomDataset(t, tc.n, tc.m, tc.density, tc.seed)
	}
	var onlyDep, onlySilent, neither int
	for _, ds := range out {
		sv := ds.Sparse()
		for i := 0; i < ds.N(); i++ {
			d0, d1, sil := len(sv.ClaimsD0.Row(i)), len(sv.ClaimsD1.Row(i)), len(sv.SilentD1.Row(i))
			switch {
			case d0 == 0 && d1 > 0 && sil == 0:
				onlyDep++
			case d0 == 0 && d1 == 0 && sil > 0:
				onlySilent++
			case d1 == 0 && sil == 0:
				neither++
			}
		}
	}
	if onlyDep == 0 || onlySilent == 0 || neither == 0 {
		t.Fatalf("reference datasets lack a source pattern: only-dependent %d, only-silent %d, neither %d",
			onlyDep, onlySilent, neither)
	}
	return out
}

// referenceInit returns an explicit initialization with F ≠ A and G ≠ B
// near variant's own fixed point, so the first iteration's convergence
// distance is carried by the dependent channel alone — the case that
// separates a distance taken over all 4n+1 parameters from one over the
// independent channel only.
func referenceInit(t *testing.T, ds *claims.Dataset, v Variant, smoothing float64) *model.Params {
	t.Helper()
	res, err := RunCtx(context.Background(), ds, v, Options{DepMode: DepModeJoint, Smoothing: smoothing})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Params.Clone()
	for i := range p.Sources {
		s := &p.Sources[i]
		s.F = model.ClampProb(1 - s.A)
		s.G = model.ClampProb(0.5*s.B + 0.25)
	}
	return p
}

// TestIterationMatchesReference: production EM returns a byte-equal
// Result to the reference loop over variants × DepMode × smoothing ×
// initialization × Scratch history × Workers, on every reference dataset.
func TestIterationMatchesReference(t *testing.T) {
	refs := referenceDatasets(t)
	for name, ds := range refs {
		for _, v := range []Variant{VariantExt, VariantIndependent, VariantSocial} {
			for _, smoothing := range []float64{0, -1} {
				inits := map[string]*model.Params{"vote": nil, "init": referenceInit(t, ds, v, smoothing)}
				for initName, init := range inits {
					for _, mode := range []DepMode{DepModeAuto, DepModeJoint, DepModePlugin} {
						opts := Options{DepMode: mode, Smoothing: smoothing, Init: init}
						want := refRun(ds, v, opts)
						for _, h := range scratchHistories {
							for _, workers := range []int{1, 3} {
								o := opts
								o.Scratch, o.Workers = usedScratch(t, refs, h), workers
								t.Run(fmt.Sprintf("%s/%v/s%v/%s/mode%d/%s/w%d", name, v, smoothing, initName, mode, h, workers), func(t *testing.T) {
									got, err := RunCtx(context.Background(), ds, v, o)
									if err != nil {
										t.Fatal(err)
									}
									requireBitIdentical(t, want, got)
								})
							}
						}
					}
				}
			}
		}
	}
}
