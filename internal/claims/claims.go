// Package claims holds the data structures at the heart of the fact-finding
// problem: the source-claim matrix SC and the dependency indicator matrix D
// from Section II of the paper.
//
// Both matrices are n×m but extremely sparse in practice (a Twitter source
// asserts a handful of the thousands of assertions in a dataset), so the
// Dataset stores only the nonzero structure, indexed both by assertion (for
// the E-step and the bound) and by source (for the M-step):
//
//   - claims: pairs (i, j) with SC[i][j] = 1, each tagged with D[i][j];
//   - silent-dependent pairs: (i, j) with SC[i][j] = 0 but D[i][j] = 1,
//     i.e. an ancestor of S_i asserted C_j yet S_i stayed silent. These are
//     informative under the dependent channel (factor 1-f_i or 1-g_i instead
//     of 1-a_i or 1-b_i) and must be tracked explicitly.
//
// All remaining (i, j) pairs are independent non-claims (factor 1-a_i or
// 1-b_i), which estimators handle in aggregate.
package claims

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"depsense/internal/model"
)

// Dataset is an immutable fact-finding input: n sources, m assertions, and
// the sparse claim and dependent-pair structure, held once as a SparseView.
// Construct one with a Builder or FromRows; a zero Dataset is empty but
// valid.
type Dataset struct {
	n, m   int
	sparse *SparseView
}

// SparseView is the flattened sparse-kernel view of a Dataset: the SC and D
// nonzero structure packed into model.CSR/model.CSC index arrays, the form
// the estimator hot paths iterate. Columns are assertions, rows are sources.
// It is the Dataset's only copy of the structure: every accessor
// (Claimants, ClaimsD0, ...) is a view into these arrays. All fields are
// frozen at Build time and must not be modified.
type SparseView struct {
	// Claims is SC's nonzero pattern by assertion: Claims.Col(j) lists the
	// claimants of assertion j in increasing source order.
	Claims *model.CSC
	// ClaimDep carries D over SC's nonzeros, aligned with Claims' nonzero
	// order: ClaimDep[k] is the dependency flag of nonzero k.
	ClaimDep []bool
	// Silent is the silent-dependent pattern by assertion (D[i][j] = 1,
	// SC[i][j] = 0).
	Silent *model.CSC
	// ClaimsD0 / ClaimsD1 / SilentD1 are the by-source (CSR) views the
	// M-step iterates: independent claims, dependent claims, and
	// silent-dependent pairs of each source, in increasing assertion order.
	ClaimsD0 *model.CSR
	ClaimsD1 *model.CSR
	SilentD1 *model.CSR
}

// Sparse returns the dataset's flattened CSR/CSC kernel view. The view is
// built once at Build time and shared by every caller; it is safe for
// concurrent reads and must not be modified.
func (d *Dataset) Sparse() *SparseView {
	if d.sparse == nil {
		// Zero-value Dataset (n = m = 0): synthesize an empty view so the
		// kernels need no nil checks. Not cached — caching here would race
		// with concurrent readers; assembled datasets always carry one.
		return assemble(emptyRows(0, 0), emptyRows(0, 0), emptyRows(0, 0)).sparse
	}
	return d.sparse
}

// FromRows assembles a Dataset from its by-source rows: for every source,
// d0 lists the assertions it claimed independently, d1 those it claimed
// dependently, and s1 those it stayed silent on with D = 1. The rows become
// the SparseView's ClaimsD0, ClaimsD1 and SilentD1 and must not be modified
// afterwards. Every other index is derived by counting passes with no
// sorting, so a caller that produces rows in assertion order (as
// depgraph.BuildDataset does) builds a Dataset in linear time. The rows
// must be valid n×m CSRs (model.CSR.Validate) with no pair in two of them.
func FromRows(d0, d1, s1 *model.CSR) (*Dataset, error) {
	rows := [...]*model.CSR{d0, d1, s1}
	for _, r := range rows {
		if r.NumRows != d0.NumRows || r.NumCols != d0.NumCols {
			return nil, fmt.Errorf("claims: rows of %d×%d and %d×%d", d0.NumRows, d0.NumCols, r.NumRows, r.NumCols)
		}
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("claims: %w", err)
		}
	}
	// seen[j] = i+1 once row i has touched assertion j.
	seen := make([]int32, d0.NumCols)
	for i := 0; i < d0.NumRows; i++ {
		for _, r := range rows {
			for _, j := range r.Row(i) {
				if seen[j] == int32(i+1) {
					return nil, fmt.Errorf("claims: pair (source=%d, assertion=%d) in two rows", i, j)
				}
				seen[j] = int32(i + 1)
			}
		}
	}
	return assemble(d0, d1, s1), nil
}

// assemble builds a Dataset around valid, pairwise disjoint by-source rows.
// The by-assertion views come from one counting pass over the rows in
// source order, so every column lists its sources in increasing order.
func assemble(d0, d1, s1 *model.CSR) *Dataset {
	n, m := d0.NumRows, d0.NumCols
	nnz := len(d0.Col) + len(d1.Col)
	claims := &model.CSC{NumRows: n, NumCols: m, ColPtr: make([]int32, m+1), Row: make([]int32, nnz)}
	for _, j := range d0.Col {
		claims.ColPtr[j+1]++
	}
	for _, j := range d1.Col {
		claims.ColPtr[j+1]++
	}
	for j := 0; j < m; j++ {
		claims.ColPtr[j+1] += claims.ColPtr[j]
	}
	dep := make([]bool, nnz)
	next := make([]int32, m)
	copy(next, claims.ColPtr[:m])
	place := func(i int, row []int32, dependent bool) {
		for _, j := range row {
			k := next[j]
			next[j]++
			claims.Row[k] = int32(i)
			dep[k] = dependent
		}
	}
	for i := 0; i < n; i++ {
		place(i, d0.Row(i), false)
		place(i, d1.Row(i), true)
	}
	return &Dataset{n: n, m: m, sparse: &SparseView{
		Claims:   claims,
		ClaimDep: dep,
		Silent:   s1.CSC(),
		ClaimsD0: d0,
		ClaimsD1: d1,
		SilentD1: s1,
	}}
}

// emptyRows returns an n×m CSR with no nonzeros, ready to append rows to.
func emptyRows(n, m int) *model.CSR {
	return &model.CSR{NumRows: n, NumCols: m, RowPtr: make([]int32, n+1), Col: []int32{}}
}

// span returns entry k of a flat index delimited by ptr, capped so that an
// append by the caller copies instead of overwriting entry k+1. An empty
// entry is nil, as in an index built by appending.
func span[T any](flat []T, ptr []int32, k int) []T {
	lo, hi := ptr[k], ptr[k+1]
	if lo == hi {
		return nil
	}
	return flat[lo:hi:hi]
}

// N returns the number of sources.
func (d *Dataset) N() int { return d.n }

// M returns the number of assertions.
func (d *Dataset) M() int { return d.m }

// NumClaims returns the total number of claims (nonzeros of SC).
func (d *Dataset) NumClaims() int { return d.Sparse().Claims.NNZ() }

// NumDependentClaims returns the number of claims with D[i][j] = 1.
func (d *Dataset) NumDependentClaims() int { return d.Sparse().ClaimsD1.NNZ() }

// NumOriginalClaims returns the number of independent claims, the paper's
// "#Original Claims" column in Table III.
func (d *Dataset) NumOriginalClaims() int { return d.Sparse().ClaimsD0.NNZ() }

// Claimants returns the sources claiming assertion j, in increasing order.
// Like every accessor below, it returns a view into the SparseView: owned
// by the Dataset, not to be modified, and nil when empty.
func (d *Dataset) Claimants(j int) []int32 {
	return span(d.sparse.Claims.Row, d.sparse.Claims.ColPtr, j)
}

// ClaimDependent returns D over the claimants of assertion j:
// ClaimDependent(j)[k] is D[i][j] for i = Claimants(j)[k].
func (d *Dataset) ClaimDependent(j int) []bool {
	return span(d.sparse.ClaimDep, d.sparse.Claims.ColPtr, j)
}

// DependentClaimCount returns how many claimants of assertion j claimed it
// dependently: the number of true entries of ClaimDependent(j).
func (d *Dataset) DependentClaimCount(j int) int {
	n := 0
	for _, dep := range d.ClaimDependent(j) {
		if dep {
			n++
		}
	}
	return n
}

// SilentDependents returns the sources with D[i][j] = 1 that did not claim
// j, in increasing order.
func (d *Dataset) SilentDependents(j int) []int32 {
	return span(d.sparse.Silent.Row, d.sparse.Silent.ColPtr, j)
}

// ClaimsD0 returns the assertions source i claimed independently.
func (d *Dataset) ClaimsD0(i int) []int32 {
	return span(d.sparse.ClaimsD0.Col, d.sparse.ClaimsD0.RowPtr, i)
}

// ClaimsD1 returns the assertions source i claimed dependently.
func (d *Dataset) ClaimsD1(i int) []int32 {
	return span(d.sparse.ClaimsD1.Col, d.sparse.ClaimsD1.RowPtr, i)
}

// SilentD1 returns the assertions with D[i][j] = 1 that source i did not
// claim.
func (d *Dataset) SilentD1(i int) []int32 {
	return span(d.sparse.SilentD1.Col, d.sparse.SilentD1.RowPtr, i)
}

// Claimed reports SC[i][j].
func (d *Dataset) Claimed(i, j int) bool {
	for _, s := range d.Claimants(j) {
		if int(s) == i {
			return true
		}
	}
	return false
}

// Dependent reports D[i][j].
func (d *Dataset) Dependent(i, j int) bool {
	dep := d.ClaimDependent(j)
	for k, s := range d.Claimants(j) {
		if int(s) == i {
			return dep[k]
		}
	}
	for _, s := range d.SilentDependents(j) {
		if int(s) == i {
			return true
		}
	}
	return false
}

// DependencyColumn materializes column j of D as a dense boolean vector of
// length n. The error-bound computation consumes columns in this form.
func (d *Dataset) DependencyColumn(j int) []bool {
	col := make([]bool, d.n)
	dep := d.ClaimDependent(j)
	for k, s := range d.Claimants(j) {
		col[s] = dep[k]
	}
	for _, s := range d.SilentDependents(j) {
		col[s] = true
	}
	return col
}

// Summary aggregates the Table III-style dataset statistics.
type Summary struct {
	Sources         int `json:"sources"`
	Assertions      int `json:"assertions"`
	TotalClaims     int `json:"totalClaims"`
	OriginalClaims  int `json:"originalClaims"`
	DependentClaims int `json:"dependentClaims"`
	SilentDependent int `json:"silentDependentPairs"`
}

// Summarize computes dataset statistics.
func (d *Dataset) Summarize() Summary {
	return Summary{
		Sources:         d.n,
		Assertions:      d.m,
		TotalClaims:     d.NumClaims(),
		OriginalClaims:  d.NumOriginalClaims(),
		DependentClaims: d.NumDependentClaims(),
		SilentDependent: d.Sparse().Silent.NNZ(),
	}
}

// String renders the summary, convenient for examples and CLIs.
func (s Summary) String() string {
	return fmt.Sprintf("sources=%d assertions=%d claims=%d (original=%d dependent=%d) silent-dependent=%d",
		s.Sources, s.Assertions, s.TotalClaims, s.OriginalClaims, s.DependentClaims, s.SilentDependent)
}

// Builder accumulates claims and dependency marks, then freezes them into a
// Dataset. It validates index ranges eagerly and duplicate/conflicting
// entries at Build time.
type Builder struct {
	n, m  int
	calls []call
	err   error
}

// call is one recorded AddClaim or MarkSilentDependent.
type call struct {
	i, j int
	kind callKind
}

// callKind is what a call recorded; Build ORs a pair's calls together, so
// their order within the pair does not matter.
type callKind uint8

const (
	independentClaim callKind = iota
	dependentClaim
	silentMark
)

// Errors reported by the Builder.
var (
	ErrIndexOutOfRange = errors.New("claims: source or assertion index out of range")
	ErrConflictingPair = errors.New("claims: pair marked both claimed and silent-dependent")
)

// NewBuilder creates a Builder for n sources and m assertions.
func NewBuilder(n, m int) *Builder {
	return &Builder{n: n, m: m}
}

func (b *Builder) record(i, j int, kind callKind) *Builder {
	if i < 0 || i >= b.n || j < 0 || j >= b.m {
		if b.err == nil {
			b.err = fmt.Errorf("%w: (source=%d, assertion=%d) with n=%d, m=%d",
				ErrIndexOutOfRange, i, j, b.n, b.m)
		}
		return b
	}
	b.calls = append(b.calls, call{i, j, kind})
	return b
}

// AddClaim records SC[i][j] = 1 with D[i][j] = dependent. Re-adding the same
// pair is allowed; a dependent mark wins over an independent one (a claim is
// dependent if ANY earlier ancestor assertion exists).
func (b *Builder) AddClaim(i, j int, dependent bool) *Builder {
	if dependent {
		return b.record(i, j, dependentClaim)
	}
	return b.record(i, j, independentClaim)
}

// MarkSilentDependent records D[i][j] = 1 for a pair where source i made no
// claim. If the pair is later claimed, Build reports ErrConflictingPair
// unless the claim itself was added as dependent (in which case the silent
// mark is redundant and dropped).
func (b *Builder) MarkSilentDependent(i, j int) *Builder {
	return b.record(i, j, silentMark)
}

// Build freezes the accumulated structure into a Dataset. When several
// pairs conflict it reports the smallest (source, assertion).
func (b *Builder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	// Sorting by (source, assertion) groups each pair's calls and emits
	// every source's rows in assertion order.
	slices.SortFunc(b.calls, func(x, y call) int {
		if c := cmp.Compare(x.i, y.i); c != 0 {
			return c
		}
		return cmp.Compare(x.j, y.j)
	})
	d0, d1, s1 := emptyRows(b.n, b.m), emptyRows(b.n, b.m), emptyRows(b.n, b.m)
	for k := 0; k < len(b.calls); {
		i, j := b.calls[k].i, b.calls[k].j
		var claimed, dep, silent bool
		for ; k < len(b.calls) && b.calls[k].i == i && b.calls[k].j == j; k++ {
			switch b.calls[k].kind {
			case independentClaim:
				claimed = true
			case dependentClaim:
				claimed, dep = true, true
			case silentMark:
				silent = true
			}
		}
		row := s1
		switch {
		case claimed && silent && !dep:
			return nil, fmt.Errorf("%w: (source=%d, assertion=%d)", ErrConflictingPair, i, j)
		case dep:
			row = d1 // a dependent claim absorbs any silent mark
		case claimed:
			row = d0
		}
		row.Col = append(row.Col, int32(j))
		row.RowPtr[i+1]++
	}
	for _, r := range [...]*model.CSR{d0, d1, s1} {
		for i := 0; i < b.n; i++ {
			r.RowPtr[i+1] += r.RowPtr[i]
		}
	}
	return assemble(d0, d1, s1), nil
}
