package bound

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"depsense/internal/runctx"
)

// ConvolutionOptions tunes the deterministic bound approximation.
type ConvolutionOptions struct {
	// Bins is the grid resolution of the log-likelihood-ratio lattice
	// (default 1 << 15). Finer grids reduce quantization error near the
	// decision threshold at linear cost.
	Bins int
}

func (o ConvolutionOptions) normalized() ConvolutionOptions {
	if o.Bins <= 0 {
		o.Bins = 1 << 15
	}
	return o
}

// halfWidth is the lattice half-width in logits around the decision
// threshold. Mass beyond the lattice is decisively classified and
// accumulates exactly in saturating edge bins.
const halfWidth = 60

// pmfCutoff truncates the claimer-count distribution of a folded source
// group: counts less likely than this are dropped. A group of g sources
// loses at most (g+1)·pmfCutoff of probability mass, so a column over n
// sources moves by at most 2n·pmfCutoff — below float64 resolution of any
// bound in (0, 1) for every n this repository handles.
const pmfCutoff = 1e-20

// Convolution computes the error bound by dynamic programming over the
// log-likelihood ratio, a deterministic alternative to both exact
// enumeration and Gibbs sampling.
//
// The optimal estimator declares an assertion true exactly when the claim
// pattern's log-likelihood ratio Λ(s) = Σ_i log(p1_i(s_i)/p0_i(s_i))
// reaches the prior threshold t = log((1-z)/z), so the Bayes risk of
// Eq. (3) is
//
//	Err = z·P(Λ < t | C=1) + (1-z)·P(Λ ≥ t | C=0).
//
// Under each hypothesis Λ is a sum of independent two-valued random
// variables (one per source), whose distribution is computed by convolving
// the per-source contributions over a discretized lattice — O(n·Bins)
// rather than O(2^n). The only approximation is lattice quantization: each
// source's contribution is rounded to the nearest bin, so mass within
// roughly n·(lattice step)/2 of the threshold may be misclassified. At the
// default resolution this keeps the bound within ~1e-3 of exact for the
// paper's problem sizes, deterministically.
//
// A single column is the one-leaf case of the kernel ForDatasetContext runs
// over every distinct column of a dataset (MethodConvolution).
func Convolution(c Column, opts ConvolutionOptions) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	k := newConvolver(opts, c.Z, c.N())
	for i := range c.P1 {
		k.indep[i] = k.lat.factor(c.P1[i], c.P0[i])
	}
	res, err := k.run(context.Background(), [][]int32{nil})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// lattice is the discretized log-likelihood-ratio axis. Index k stands for
// Λ = t + (k - bins/2)·step, so the decision boundary "Λ ≥ t" falls between
// bins/2-1 and bins/2 (up to per-source rounding), and mass pushed past
// either end saturates in the edge bin.
type lattice struct {
	bins  int
	step  float64
	z     float64
	start int // the index of Λ = 0, where all mass starts
}

func newLattice(opts ConvolutionOptions, z float64) lattice {
	opts = opts.normalized()
	l := lattice{bins: opts.Bins, step: 2 * halfWidth / float64(opts.Bins), z: clampOpen(z)}
	threshold := math.Log((1 - l.z) / l.z)
	l.start = clampBin(l.bins/2-int(math.Round(threshold/l.step)), l.bins)
	return l
}

// factor is one source's two-valued contribution to Λ in one dependency
// mode: the lattice offsets of claiming and of staying silent, and the
// claim probability under C=1 and under C=0.
type factor struct {
	on, off int
	p1, p0  float64
}

func (l lattice) factor(p1, p0 float64) factor {
	p1, p0 = clampOpen(p1), clampOpen(p0)
	return factor{
		on:  l.offset(math.Log(p1 / p0)),
		off: l.offset(math.Log((1 - p1) / (1 - p0))),
		p1:  p1,
		p0:  p0,
	}
}

// offset rounds a log-likelihood ratio to whole bins. Offsets beyond the
// lattice width saturate from any bin, so they are capped there, which
// keeps the integer arithmetic of a folded group in range.
func (l lattice) offset(llr float64) int {
	b := float64(l.bins)
	return int(math.Max(-b, math.Min(b, math.Round(llr/l.step))))
}

// risk reads the Bayes risk off a finished distribution: the decision is
// "true" iff Λ ≥ t, i.e. lattice index ≥ bins/2.
func (l lattice) risk(d *dist) (Result, error) {
	var res Result
	half := l.bins / 2
	for k := d.lo; k <= d.hi; k++ {
		if k >= half {
			res.FalsePos += (1 - l.z) * d.m0[k]
		} else {
			res.FalseNeg += l.z * d.m1[k]
		}
	}
	res.Err = res.FalsePos + res.FalseNeg
	if math.IsNaN(res.Err) {
		return Result{}, fmt.Errorf("bound: convolution produced NaN")
	}
	return res, nil
}

// clampBin saturates a lattice index; mass beyond the lattice is decisive
// and belongs to the edge bins.
func clampBin(k, bins int) int {
	if k < 0 {
		return 0
	}
	if k >= bins {
		return bins - 1
	}
	return k
}

// dist is the lattice distribution of Λ under both hypotheses. Bins
// outside [lo, hi] hold no mass and are never read, whatever the buffers
// contain there.
type dist struct {
	m1, m0 []float64 // mass under C=1 and under C=0
	lo, hi int
}

func newDist(bins int) dist {
	return dist{m1: make([]float64, bins), m0: make([]float64, bins)}
}

func (d *dist) copyFrom(src *dist) {
	d.lo, d.hi = src.lo, src.hi
	copy(d.m1[d.lo:d.hi+1], src.m1[d.lo:d.hi+1])
	copy(d.m0[d.lo:d.hi+1], src.m0[d.lo:d.hi+1])
}

// convolver evaluates the lattice bound of many columns over the same
// sources. Each source contributes one of two factors: indep (D = 0, claim
// probabilities a and b) or dep (D = 1, f and g); a column names the
// sources in dep mode.
//
// The columns are the leaves of a balanced binary tree over their given
// order, and a source is convolved once, at the highest node where its
// mode is the same for every column below. Sources that are independent in
// every column are therefore convolved once at the root, and a column pays
// only for what sets it apart from its neighbours; sorted columns put
// columns that share dependents next to each other. The kernel only ever
// convolves forward: deconvolving a factor out of a shared distribution
// would be cheaper, but mass that has saturated in an edge bin cannot be
// taken back out.
type convolver struct {
	lat        lattice
	indep, dep []factor
	cols       [][]int32

	levels []level // one per tree depth
	spare  dist    // the destination of a fold, swapped into its level
	count  []int   // per source: columns naming it in the current range
	group  []factor
	pmf1   []float64
	pmf0   []float64
	out    []Result

	hook  runctx.Hook
	nodes int
}

// level is one tree depth's working state: the distribution at the node
// being visited there and the sources whose mode still varies below it.
type level struct {
	d     dist
	mixed []int32
}

func newConvolver(opts ConvolutionOptions, z float64, n int) *convolver {
	return &convolver{
		lat:   newLattice(opts, z),
		indep: make([]factor, n),
		dep:   make([]factor, n),
	}
}

// run returns the bound of every column. cols[c] lists the sources in dep
// mode in column c, ascending; columns should arrive sorted so that
// neighbours share work. The context is checked, and its hook fired, at
// every tree node.
func (k *convolver) run(ctx context.Context, cols [][]int32) ([]Result, error) {
	n := len(k.indep)
	k.cols = cols
	k.out = make([]Result, len(cols))
	k.count = make([]int, n)
	k.hook = runctx.HookFrom(ctx)
	// Midpoint splits put every leaf within ⌈log₂ columns⌉ of the root.
	depth := 1 + bits.Len(uint(len(cols)-1))
	k.levels = make([]level, depth)
	for i := range k.levels {
		k.levels[i].d = newDist(k.lat.bins)
	}
	k.spare = newDist(k.lat.bins)
	k.group = make([]factor, 0, n)
	k.pmf1 = make([]float64, n+1)
	k.pmf0 = make([]float64, n+1)

	root := &k.levels[0]
	root.d.lo, root.d.hi = k.lat.start, k.lat.start
	root.d.m1[k.lat.start], root.d.m0[k.lat.start] = 1, 1
	k.tally(0, len(cols), 1)
	for s := 0; s < n; s++ {
		switch k.count[s] {
		case 0:
			k.group = append(k.group, k.indep[s])
		case len(cols):
			k.group = append(k.group, k.dep[s])
		default:
			root.mixed = append(root.mixed, int32(s))
		}
	}
	k.tally(0, len(cols), -1)
	for i := 1; i < depth; i++ {
		k.levels[i].mixed = make([]int32, 0, len(root.mixed))
	}
	k.fold(&root.d)
	if err := k.node(ctx, 0, 0, len(cols)); err != nil {
		k.hook.Emit(runctx.Iteration{Algorithm: "convolution-bound", N: k.nodes, Done: true, Stopped: runctx.Reason(err)})
		return nil, err
	}
	return k.out, nil
}

// node finishes the subtree over columns [lo, hi), whose shared sources
// are already convolved into the distribution at this depth.
func (k *convolver) node(ctx context.Context, depth, lo, hi int) error {
	if err := runctx.Err(ctx); err != nil {
		return err
	}
	k.nodes++
	k.hook.Emit(runctx.Iteration{Algorithm: "convolution-bound", N: k.nodes})
	parent := &k.levels[depth]
	if hi-lo == 1 {
		var err error
		k.out[lo], err = k.lat.risk(&parent.d)
		return err
	}
	mid := lo + (hi-lo)/2
	for _, r := range [2][2]int{{lo, mid}, {mid, hi}} {
		a, b := r[0], r[1]
		child := &k.levels[depth+1]
		child.mixed = child.mixed[:0]
		k.group = k.group[:0]
		k.tally(a, b, 1)
		for _, s := range parent.mixed {
			switch k.count[s] {
			case 0:
				k.group = append(k.group, k.indep[s])
			case b - a:
				k.group = append(k.group, k.dep[s])
			default:
				child.mixed = append(child.mixed, s)
			}
		}
		k.tally(a, b, -1)
		child.d.copyFrom(&parent.d)
		k.fold(&child.d)
		if err := k.node(ctx, depth+1, a, b); err != nil {
			return err
		}
	}
	return nil
}

// tally adds delta to the count of every source named by columns [lo, hi).
func (k *convolver) tally(lo, hi, delta int) {
	for _, col := range k.cols[lo:hi] {
		for _, s := range col {
			k.count[s] += delta
		}
	}
}

// fold convolves k.group into d. Factors sharing both lattice offsets
// shift Λ by the same amount per claimer, so each such group folds in as
// one step over its claimer count, whose distribution under each
// hypothesis is Poisson-binomial.
func (k *convolver) fold(d *dist) {
	fs := k.group
	slices.SortStableFunc(fs, func(a, b factor) int {
		return cmp.Or(cmp.Compare(a.on, b.on), cmp.Compare(a.off, b.off))
	})
	for i := 0; i < len(fs); {
		j := i + 1
		for ; j < len(fs) && fs[j].on == fs[i].on && fs[j].off == fs[i].off; j++ {
		}
		k.foldGroup(d, fs[i:j])
		i = j
	}
}

// foldGroup convolves g sources with identical offsets into d: t claimers
// out of g shift Λ by t·on + (g-t)·off.
func (k *convolver) foldGroup(d *dist, grp []factor) {
	g := len(grp)
	lo1, hi1 := claimers(k.pmf1, grp, func(f factor) float64 { return f.p1 })
	lo0, hi0 := claimers(k.pmf0, grp, func(f factor) float64 { return f.p0 })
	on, off := grp[0].on, grp[0].off
	shift := func(t int) int { return t*on + (g-t)*off }
	tlo, thi := min(lo1, lo0), max(hi1, hi0)
	sLo, sHi := min(shift(tlo), shift(thi)), max(shift(tlo), shift(thi))

	dst := &k.spare
	dst.lo, dst.hi = clampBin(d.lo+sLo, k.lat.bins), clampBin(d.hi+sHi, k.lat.bins)
	clear(dst.m1[dst.lo : dst.hi+1])
	clear(dst.m0[dst.lo : dst.hi+1])
	for t := lo1; t <= hi1; t++ {
		addShifted(dst.m1, d.m1, d.lo, d.hi, shift(t), k.pmf1[t])
	}
	for t := lo0; t <= hi0; t++ {
		addShifted(dst.m0, d.m0, d.lo, d.hi, shift(t), k.pmf0[t])
	}
	*d, k.spare = *dst, *d
}

// claimers fills w with the distribution of how many of grp's sources
// claim, each independently with probability p(source), and returns the
// window [lo, hi] of counts it kept: counts outside it fell below
// pmfCutoff and count as zero.
func claimers(w []float64, grp []factor, p func(factor) float64) (lo, hi int) {
	w[0] = 1
	for _, f := range grp {
		q := p(f)
		hi++
		w[hi] = w[hi-1] * q
		for t := hi - 1; t > lo; t-- {
			w[t] = w[t]*(1-q) + w[t-1]*q
		}
		w[lo] *= 1 - q
		for ; lo < hi && w[lo] < pmfCutoff; lo++ {
		}
		for ; hi > lo && w[hi] < pmfCutoff; hi-- {
		}
	}
	return lo, hi
}

// addShifted adds w·src[k] to dst[k+shift] for every k in [lo, hi],
// saturating at the lattice edges.
func addShifted(dst, src []float64, lo, hi, shift int, w float64) {
	bins := len(dst)
	// Bins [lo, a) land below the lattice, [b, hi] above it.
	a := min(hi+1, max(lo, -shift))
	b := max(a, min(hi+1, bins-shift))
	var under, over float64
	for _, m := range src[lo:a] {
		under += m
	}
	for _, m := range src[b : hi+1] {
		over += m
	}
	if a > lo {
		dst[0] += under * w
	}
	if b <= hi {
		dst[bins-1] += over * w
	}
	if a < b {
		// Unrolled by four: the one-element loop ran up to a third slower
		// at some addresses in the binary, and this loop is most of the
		// bound's time. Each slot still gets one multiply and one add, so
		// the sums are unchanged.
		in, out := src[a:b], dst[a+shift:b+shift]
		i := 0
		for ; i+4 <= len(in); i += 4 {
			o, s := out[i:i+4:i+4], in[i:i+4:i+4]
			o[0] += s[0] * w
			o[1] += s[1] * w
			o[2] += s[2] * w
			o[3] += s[3] * w
		}
		for ; i < len(in); i++ {
			out[i] += in[i] * w
		}
	}
}
