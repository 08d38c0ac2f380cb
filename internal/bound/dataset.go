package bound

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"depsense/internal/claims"
	"depsense/internal/model"
	"depsense/internal/randutil"
	"depsense/internal/runctx"
)

// Method selects how per-column bounds are computed for a dataset.
type Method int

// Bound computation methods.
const (
	// MethodExact enumerates all 2^n patterns per distinct column.
	MethodExact Method = iota + 1
	// MethodApprox runs the Gibbs approximation per distinct column.
	MethodApprox
	// MethodConvolution runs the deterministic log-likelihood-ratio DP over
	// every distinct column, sharing the work the columns have in common.
	MethodConvolution
)

// DatasetOptions configures ForDatasetContext.
type DatasetOptions struct {
	Method Method
	// GibbsSweeps caps the Gibbs chain of each column when Method ==
	// MethodApprox; zero or negative means DefaultGibbsSweeps.
	GibbsSweeps int
	// Convolution tunes the lattice when Method == MethodConvolution.
	Convolution ConvolutionOptions
	// MaxColumns caps the number of distinct dependency columns evaluated;
	// when exceeded, columns are sampled and the result reweighted by column
	// frequency. Zero means no cap.
	MaxColumns int
	// Workers bounds the intra-column parallelism of MethodExact: its
	// enumeration blocks fan out over this many goroutines. Columns
	// themselves are evaluated serially so the frequency-weighted reduction
	// order — and therefore the Result — never depends on Workers. 0 or 1
	// runs fully serial; MethodApprox and MethodConvolution are always
	// serial.
	Workers int
}

// ErrNoGenerator is returned when ForDatasetContext needs randomness — Gibbs
// sampling (MethodApprox) or column sampling (MaxColumns) — and the caller
// passed no generator. The deterministic methods never consult one.
var ErrNoGenerator = errors.New("bound: a random generator is required for Gibbs or column sampling")

// ForDatasetContext computes the expected error bound of a dataset: the
// frequency-weighted average over assertions of the per-assertion bound.
// Assertions sharing a dependency column share a bound, so distinct columns
// are evaluated once and weighted by multiplicity — the dominant saving in
// the paper's forest-structured simulations, where columns repeat heavily.
// MethodConvolution goes further and shares the convolution of every
// source whose dependency mode several columns agree on (see Convolution).
//
// The context is threaded into each per-column computation (exact
// enumeration blocks, Gibbs sweeps and convolution tree nodes all check
// it), and also checked between columns, so a cancel returns within one
// block/sweep/node of work with the context's error.
func ForDatasetContext(ctx context.Context, ds *claims.Dataset, p *model.Params, opts DatasetOptions, rng *rand.Rand) (Result, error) {
	if ds.M() == 0 {
		return Result{}, fmt.Errorf("bound: dataset has no assertions")
	}
	if ds.N() != p.NumSources() {
		return Result{}, fmt.Errorf("bound: dataset has %d sources, params have %d", ds.N(), p.NumSources())
	}
	if opts.Method == 0 {
		opts.Method = MethodApprox
	}
	if opts.Method < MethodExact || opts.Method > MethodConvolution {
		return Result{}, fmt.Errorf("bound: unknown method %d", opts.Method)
	}

	// Sampling indexes, and the weighted sum runs over, the columns in
	// order of first appearance.
	selected := distinctColumns(ds)
	sampled := opts.MaxColumns > 0 && len(selected) > opts.MaxColumns
	if rng == nil && (sampled || opts.Method == MethodApprox) {
		return Result{}, ErrNoGenerator
	}
	if sampled {
		idx := randutil.SampleWithoutReplacement(rng, len(selected), opts.MaxColumns)
		all := selected
		selected = make([]columnGroup, 0, opts.MaxColumns)
		for _, i := range idx {
			selected = append(selected, all[i])
		}
	}

	var results []Result
	if opts.Method == MethodConvolution {
		var err error
		if results, err = convolveGroups(ctx, selected, p, opts.Convolution); err != nil {
			return Result{}, err
		}
	} else {
		results = make([]Result, len(selected))
		dense := make([]bool, ds.N())
		for g, grp := range selected {
			if err := runctx.Err(ctx); err != nil {
				return Result{}, err
			}
			for _, s := range grp.deps {
				dense[s] = true
			}
			col, err := NewColumn(p, dense)
			for _, s := range grp.deps {
				dense[s] = false
			}
			if err != nil {
				return Result{}, err
			}
			if opts.Method == MethodExact {
				results[g], err = Exact(ctx, col, opts.Workers)
			} else {
				results[g], err = ApproxContext(ctx, col, opts.GibbsSweeps, rng)
			}
			if err != nil {
				return Result{}, err
			}
		}
	}

	var agg Result
	totalWeight := 0.0
	for g, r := range results {
		w := float64(selected[g].count)
		agg.Err += w * r.Err
		agg.FalsePos += w * r.FalsePos
		agg.FalseNeg += w * r.FalseNeg
		agg.StdErr += w * w * r.StdErr * r.StdErr
		agg.Sweeps += r.Sweeps
		totalWeight += w
	}
	agg.Err /= totalWeight
	agg.FalsePos /= totalWeight
	agg.FalseNeg /= totalWeight
	if agg.StdErr > 0 {
		agg.StdErr = math.Sqrt(agg.StdErr) / totalWeight
	}
	return agg, nil
}

// convolveGroups runs the convolution kernel over the columns in
// lexicographic order of their dependent sources, which puts columns that
// share dependents next to each other, and returns each column's bound in
// the order given.
func convolveGroups(ctx context.Context, groups []columnGroup, p *model.Params, opts ConvolutionOptions) ([]Result, error) {
	if p.NumSources() == 0 {
		return nil, model.ErrNoSources
	}
	k := newConvolver(opts, model.ClampProb(p.Z), p.NumSources())
	for i, s := range p.Sources {
		s = s.Clamp()
		k.indep[i] = k.lat.factor(s.A, s.B)
		k.dep[i] = k.lat.factor(s.F, s.G)
	}
	lex := make([]int, len(groups))
	for g := range lex {
		lex[g] = g
	}
	slices.SortFunc(lex, func(a, b int) int { return slices.Compare(groups[a].deps, groups[b].deps) })
	cols := make([][]int32, len(lex))
	for c, g := range lex {
		cols[c] = groups[g].deps
	}
	res, err := k.run(ctx, cols)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(groups))
	for c, g := range lex {
		results[g] = res[c]
	}
	return results, nil
}

// columnGroup is one distinct dependency column: its dependent sources in
// ascending order, the first assertion that has it, and how many do.
type columnGroup struct {
	deps  []int32
	first int
	count int
}

// distinctColumns groups the dataset's assertions by dependency column,
// built sparsely from each assertion's dependent claimants and silent
// dependents, in order of each column's first assertion.
func distinctColumns(ds *claims.Dataset) []columnGroup {
	m := ds.M()
	ptr := make([]int, m+1)
	flat := make([]int32, 0, ds.NumDependentClaims()+ds.Summarize().SilentDependent)
	for j := 0; j < m; j++ {
		dep := ds.ClaimDependent(j)
		for k, s := range ds.Claimants(j) {
			if dep[k] {
				flat = append(flat, s)
			}
		}
		flat = append(flat, ds.SilentDependents(j)...)
		slices.Sort(flat[ptr[j]:])
		ptr[j+1] = len(flat)
	}
	col := func(j int) []int32 { return flat[ptr[j]:ptr[j+1]:ptr[j+1]] }

	byCol := make([]int, m)
	for j := range byCol {
		byCol[j] = j
	}
	// Stable, so each run of equal columns starts at its first assertion.
	slices.SortStableFunc(byCol, func(a, b int) int { return slices.Compare(col(a), col(b)) })
	var groups []columnGroup
	for i, j := range byCol {
		if i > 0 && slices.Equal(col(j), groups[len(groups)-1].deps) {
			groups[len(groups)-1].count++
			continue
		}
		groups = append(groups, columnGroup{deps: col(j), first: j, count: 1})
	}
	slices.SortFunc(groups, func(a, b columnGroup) int { return cmp.Compare(a.first, b.first) })
	return groups
}

// DistinctColumns returns the number of distinct dependency columns in the
// dataset, a useful cost predictor for every method.
func DistinctColumns(ds *claims.Dataset) int {
	return len(distinctColumns(ds))
}
