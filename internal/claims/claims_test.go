package claims

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"depsense/internal/model"
)

func mustBuild(t *testing.T, b *Builder) *Dataset {
	t.Helper()
	ds, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ds
}

func TestEmptyDataset(t *testing.T) {
	ds := mustBuild(t, NewBuilder(3, 4))
	if ds.N() != 3 || ds.M() != 4 {
		t.Fatalf("dims = (%d,%d)", ds.N(), ds.M())
	}
	if ds.NumClaims() != 0 || ds.NumDependentClaims() != 0 {
		t.Fatal("empty dataset has claims")
	}
	for j := 0; j < 4; j++ {
		if len(ds.Claimants(j)) != 0 || len(ds.SilentDependents(j)) != 0 {
			t.Fatal("empty dataset has assertion entries")
		}
	}
}

func TestBasicClaims(t *testing.T) {
	b := NewBuilder(3, 2)
	b.AddClaim(0, 0, false)
	b.AddClaim(1, 0, true)
	b.AddClaim(2, 1, false)
	b.MarkSilentDependent(0, 1)
	ds := mustBuild(t, b)

	if ds.NumClaims() != 3 || ds.NumDependentClaims() != 1 || ds.NumOriginalClaims() != 2 {
		t.Fatalf("counts: %+v", ds.Summarize())
	}
	if !ds.Claimed(0, 0) || ds.Claimed(0, 1) || !ds.Claimed(1, 0) {
		t.Fatal("Claimed wrong")
	}
	if ds.Dependent(0, 0) || !ds.Dependent(1, 0) || !ds.Dependent(0, 1) {
		t.Fatal("Dependent wrong")
	}
	if got := ds.ClaimsD0(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("ClaimsD0(0) = %v", got)
	}
	if got := ds.ClaimsD1(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("ClaimsD1(1) = %v", got)
	}
	if got := ds.SilentD1(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("SilentD1(0) = %v", got)
	}
}

func TestDuplicateClaimDependentWins(t *testing.T) {
	b := NewBuilder(1, 1)
	b.AddClaim(0, 0, false)
	b.AddClaim(0, 0, true)
	ds := mustBuild(t, b)
	if ds.NumClaims() != 1 || !ds.Dependent(0, 0) {
		t.Fatal("dependent mark should win and duplicates collapse")
	}

	b = NewBuilder(1, 1)
	b.AddClaim(0, 0, true)
	b.AddClaim(0, 0, false)
	ds = mustBuild(t, b)
	if !ds.Dependent(0, 0) {
		t.Fatal("dependent mark lost when added first")
	}
}

func TestSilentThenClaimConflicts(t *testing.T) {
	b := NewBuilder(1, 1)
	b.MarkSilentDependent(0, 0)
	b.AddClaim(0, 0, false)
	if _, err := b.Build(); !errors.Is(err, ErrConflictingPair) {
		t.Fatalf("want ErrConflictingPair, got %v", err)
	}

	// A dependent claim subsumes the silent mark.
	b = NewBuilder(1, 1)
	b.MarkSilentDependent(0, 0)
	b.AddClaim(0, 0, true)
	ds := mustBuild(t, b)
	if len(ds.SilentDependents(0)) != 0 || !ds.Dependent(0, 0) {
		t.Fatal("dependent claim should subsume silent mark")
	}
}

func TestOutOfRange(t *testing.T) {
	for _, f := range []func(*Builder){
		func(b *Builder) { b.AddClaim(-1, 0, false) },
		func(b *Builder) { b.AddClaim(2, 0, false) },
		func(b *Builder) { b.AddClaim(0, 3, false) },
		func(b *Builder) { b.MarkSilentDependent(0, -1) },
	} {
		b := NewBuilder(2, 3)
		f(b)
		if _, err := b.Build(); !errors.Is(err, ErrIndexOutOfRange) {
			t.Fatalf("want ErrIndexOutOfRange, got %v", err)
		}
	}
}

func TestDependencyColumn(t *testing.T) {
	b := NewBuilder(4, 1)
	b.AddClaim(0, 0, false)
	b.AddClaim(1, 0, true)
	b.MarkSilentDependent(3, 0)
	ds := mustBuild(t, b)
	col := ds.DependencyColumn(0)
	want := []bool{false, true, false, true}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("column = %v, want %v", col, want)
		}
	}
}

func TestDeterministicOrder(t *testing.T) {
	build := func() *Dataset {
		b := NewBuilder(10, 5)
		for i := 9; i >= 0; i-- {
			b.AddClaim(i, i%5, i%2 == 0)
		}
		b.MarkSilentDependent(3, 4)
		b.MarkSilentDependent(1, 4)
		ds, _ := b.Build()
		return ds
	}
	a, b := build(), build()
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatal("identical builds serialize differently (map-order leak)")
	}
	for j := 0; j < 5; j++ {
		cl := a.Claimants(j)
		for k := 1; k < len(cl); k++ {
			if cl[k-1] >= cl[k] {
				t.Fatal("claimants not sorted")
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	b := NewBuilder(5, 4)
	b.AddClaim(0, 1, false)
	b.AddClaim(2, 1, true)
	b.AddClaim(4, 3, true)
	b.MarkSilentDependent(1, 1)
	b.MarkSilentDependent(3, 3)
	ds := mustBuild(t, b)

	var buf bytes.Buffer
	if _, err := ds.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadDataset(&buf)
	if err != nil {
		t.Fatalf("ReadDataset: %v", err)
	}
	if got.N() != ds.N() || got.M() != ds.M() {
		t.Fatal("dims changed in round trip")
	}
	ja, _ := json.Marshal(ds)
	jb, _ := json.Marshal(got)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("round trip mismatch:\n%s\n%s", ja, jb)
	}
}

func TestReadDatasetRejectsGarbage(t *testing.T) {
	if _, err := ReadDataset(bytes.NewBufferString("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Structurally valid JSON with out-of-range index.
	bad := `{"sources":1,"assertions":1,"claims":[{"source":5,"assertion":0}]}`
	if _, err := ReadDataset(bytes.NewBufferString(bad)); err == nil {
		t.Fatal("out-of-range claim accepted")
	}
}

// TestIndexConsistency is the structural invariant: the by-assertion and
// by-source views must describe exactly the same set of pairs.
func TestIndexConsistency(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		m := 1 + rng.Intn(12)
		b := NewBuilder(n, m)
		type pk struct{ i, j int }
		claimed := make(map[pk]bool)
		silent := make(map[pk]bool)
		for k := 0; k < rng.Intn(40); k++ {
			i, j := rng.Intn(n), rng.Intn(m)
			dep := rng.Intn(2) == 0
			key := pk{i, j}
			if silent[key] {
				dep = true // avoid intentional conflicts in this test
			}
			b.AddClaim(i, j, dep)
			claimed[key] = claimed[key] || dep
		}
		for k := 0; k < rng.Intn(20); k++ {
			i, j := rng.Intn(n), rng.Intn(m)
			key := pk{i, j}
			if _, isClaim := claimed[key]; isClaim {
				continue
			}
			b.MarkSilentDependent(i, j)
			silent[key] = true
		}
		ds, err := b.Build()
		if err != nil {
			return false
		}

		// Rebuild the pair sets from the by-source view.
		gotClaims := make(map[pk]bool)
		gotSilent := make(map[pk]bool)
		for i := 0; i < n; i++ {
			for _, j := range ds.ClaimsD0(i) {
				gotClaims[pk{i, int(j)}] = false
			}
			for _, j := range ds.ClaimsD1(i) {
				gotClaims[pk{i, int(j)}] = true
			}
			for _, j := range ds.SilentD1(i) {
				gotSilent[pk{i, int(j)}] = true
			}
		}
		// And from the by-assertion view.
		gotClaims2 := make(map[pk]bool)
		total := 0
		for j := 0; j < m; j++ {
			dep := ds.ClaimDependent(j)
			for k, i := range ds.Claimants(j) {
				gotClaims2[pk{int(i), j}] = dep[k]
				total++
			}
		}
		if total != ds.NumClaims() || len(gotClaims) != len(claimed) || len(gotClaims2) != len(claimed) {
			return false
		}
		for k, dep := range claimed {
			if gotClaims[k] != dep || gotClaims2[k] != dep {
				return false
			}
		}
		if len(gotSilent) != len(silent) {
			return false
		}
		sum := ds.Summarize()
		return sum.TotalClaims == sum.OriginalClaims+sum.DependentClaims &&
			sum.SilentDependent == len(silent)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConflictErrorDeterministic: when several pairs are marked both
// claimed and silent-dependent, Build must always report the same one —
// the lowest (source, assertion) in lexicographic order — instead of
// whichever a map iteration surfaced first.
func TestConflictErrorDeterministic(t *testing.T) {
	build := func() error {
		b := NewBuilder(8, 8)
		for _, p := range [][2]int{{5, 5}, {1, 1}, {3, 3}} {
			b.MarkSilentDependent(p[0], p[1])
			b.AddClaim(p[0], p[1], false)
		}
		_, err := b.Build()
		return err
	}
	first := build()
	if !errors.Is(first, ErrConflictingPair) {
		t.Fatalf("expected ErrConflictingPair, got %v", first)
	}
	want := "(source=1, assertion=1)"
	if !strings.Contains(first.Error(), want) {
		t.Fatalf("conflict error %q does not name the lowest pair %s", first, want)
	}
	for run := 0; run < 50; run++ {
		if got := build(); got.Error() != first.Error() {
			t.Fatalf("run %d: error %q differs from first run %q", run, got, first)
		}
	}
}

// randomDense draws an n×m SC and D at random, feeds them to a Builder,
// and returns the built dataset with the dense matrices it was fed.
func randomDense(t *testing.T, rng *rand.Rand) (ds *Dataset, sc, dep [][]bool) {
	t.Helper()
	n, m := 1+rng.Intn(30), 1+rng.Intn(30)
	b := NewBuilder(n, m)
	sc, dep = make([][]bool, n), make([][]bool, n)
	for i := range sc {
		sc[i], dep[i] = make([]bool, m), make([]bool, m)
		for j := 0; j < m; j++ {
			switch {
			case rng.Float64() < 0.15:
				sc[i][j], dep[i][j] = true, rng.Float64() < 0.4
				b.AddClaim(i, j, dep[i][j])
			case rng.Float64() < 0.05:
				dep[i][j] = true
				b.MarkSilentDependent(i, j)
			}
		}
	}
	return mustBuild(t, b), sc, dep
}

// TestSparseViewMatchesAccessors: every SparseView field and every
// accessor describes the dense SC and D the Builder was fed, in
// increasing index order, and an empty entry is nil.
func TestSparseViewMatchesAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		ds, sc, dep := randomDense(t, rng)
		n, m := len(sc), len(sc[0])
		if ds.N() != n || ds.M() != m {
			t.Fatalf("trial %d: dims (%d,%d), want (%d,%d)", trial, ds.N(), ds.M(), n, m)
		}
		sv := ds.Sparse()
		for _, v := range []interface{ Validate() error }{
			sv.Claims, sv.Silent, sv.ClaimsD0, sv.ClaimsD1, sv.SilentD1,
		} {
			if err := v.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		same := func(name string, k int, got, view []int32, want []int32) {
			t.Helper()
			if !slices.Equal(got, want) || !slices.Equal(view, want) || (got == nil) != (len(want) == 0) {
				t.Fatalf("trial %d %s(%d) = %v, view %v, want %v", trial, name, k, got, view, want)
			}
		}
		var claims, dependents, original, silent int
		for j := 0; j < m; j++ {
			var cl, sil []int32
			var flags []bool
			col := make([]bool, n)
			for i := 0; i < n; i++ {
				switch {
				case sc[i][j]:
					cl, flags = append(cl, int32(i)), append(flags, dep[i][j])
				case dep[i][j]:
					sil = append(sil, int32(i))
				}
				col[i] = dep[i][j]
				if ds.Claimed(i, j) != sc[i][j] || ds.Dependent(i, j) != dep[i][j] {
					t.Fatalf("trial %d (%d,%d): Claimed %v Dependent %v, want %v %v",
						trial, i, j, ds.Claimed(i, j), ds.Dependent(i, j), sc[i][j], dep[i][j])
				}
			}
			same("Claimants", j, ds.Claimants(j), sv.Claims.Col(j), cl)
			same("SilentDependents", j, ds.SilentDependents(j), sv.Silent.Col(j), sil)
			got, view := ds.ClaimDependent(j), sv.ClaimDep[sv.Claims.ColPtr[j]:sv.Claims.ColPtr[j+1]]
			if !slices.Equal(got, flags) || !slices.Equal(view, flags) || (got == nil) != (len(flags) == 0) {
				t.Fatalf("trial %d ClaimDependent(%d) = %v, view %v, want %v", trial, j, got, view, flags)
			}
			wantDep := 0
			for _, f := range flags {
				if f {
					wantDep++
				}
			}
			if got := ds.DependentClaimCount(j); got != wantDep {
				t.Fatalf("trial %d DependentClaimCount(%d) = %d, want %d", trial, j, got, wantDep)
			}
			if got := ds.DependencyColumn(j); !slices.Equal(got, col) {
				t.Fatalf("trial %d DependencyColumn(%d) = %v, want %v", trial, j, got, col)
			}
			claims += len(cl)
			silent += len(sil)
		}
		if len(sv.ClaimDep) != claims {
			t.Fatalf("trial %d: ClaimDep length %d, want %d", trial, len(sv.ClaimDep), claims)
		}
		for i := 0; i < n; i++ {
			var d0, d1, s1 []int32
			for j := 0; j < m; j++ {
				switch {
				case sc[i][j] && dep[i][j]:
					d1 = append(d1, int32(j))
				case sc[i][j]:
					d0 = append(d0, int32(j))
				case dep[i][j]:
					s1 = append(s1, int32(j))
				}
			}
			same("ClaimsD0", i, ds.ClaimsD0(i), sv.ClaimsD0.Row(i), d0)
			same("ClaimsD1", i, ds.ClaimsD1(i), sv.ClaimsD1.Row(i), d1)
			same("SilentD1", i, ds.SilentD1(i), sv.SilentD1.Row(i), s1)
			dependents += len(d1)
			original += len(d0)
		}
		want := Summary{Sources: n, Assertions: m, TotalClaims: claims, OriginalClaims: original,
			DependentClaims: dependents, SilentDependent: silent}
		if got := ds.Summarize(); got != want || ds.NumClaims() != claims ||
			ds.NumDependentClaims() != dependents || ds.NumOriginalClaims() != original {
			t.Fatalf("trial %d: summary %+v, want %+v", trial, got, want)
		}
	}
	// Zero-value dataset still yields a structurally valid (empty) view.
	var zero Dataset
	if err := zero.Sparse().Claims.Validate(); err != nil {
		t.Fatalf("zero-value view: %v", err)
	}
	if zero.NumClaims() != 0 || zero.Summarize() != (Summary{}) {
		t.Fatalf("zero-value summary %+v", zero.Summarize())
	}
}

// TestSparseViewAccessorsDoNotAlias: appending to any accessor's result
// copies instead of overwriting the next entry of the shared view.
func TestSparseViewAccessorsDoNotAlias(t *testing.T) {
	ds, sc, _ := randomDense(t, rand.New(rand.NewSource(78)))
	n, m := len(sc), len(sc[0])
	sv := ds.Sparse()
	arrays := func() [][]int32 {
		return [][]int32{sv.Claims.Row, sv.Silent.Row, sv.ClaimsD0.Col, sv.ClaimsD1.Col, sv.SilentD1.Col}
	}
	var before [][]int32
	for _, a := range arrays() {
		before = append(before, slices.Clone(a))
	}
	beforeDep := slices.Clone(sv.ClaimDep)
	check := func(name string, k int) {
		t.Helper()
		for a, arr := range arrays() {
			if !slices.Equal(arr, before[a]) {
				t.Fatalf("append to %s(%d) overwrote view array %d", name, k, a)
			}
		}
		if !slices.Equal(sv.ClaimDep, beforeDep) {
			t.Fatalf("append to %s(%d) overwrote ClaimDep", name, k)
		}
	}
	for _, acc := range []struct {
		name  string
		count int
		get   func(int) []int32
	}{
		{"Claimants", m, ds.Claimants},
		{"SilentDependents", m, ds.SilentDependents},
		{"ClaimsD0", n, ds.ClaimsD0},
		{"ClaimsD1", n, ds.ClaimsD1},
		{"SilentD1", n, ds.SilentD1},
	} {
		for k := 0; k < acc.count; k++ {
			_ = append(acc.get(k), -1)
			check(acc.name, k)
		}
	}
	for j := 0; j < m; j++ {
		// One of the two values differs from whatever follows column j.
		for _, v := range []bool{false, true} {
			_ = append(ds.ClaimDependent(j), v)
			check("ClaimDependent", j)
		}
	}
}

// TestBuilderContract pins the Builder's resolution rules by the exact
// error or JSON encoding Build produces for a sequence of calls.
func TestBuilderContract(t *testing.T) {
	cases := []struct {
		name     string
		n, m     int
		calls    func(b *Builder)
		wantErr  string
		wantJSON string
	}{
		{
			name: "conflict names the smallest pair",
			n:    4, m: 4,
			calls: func(b *Builder) {
				b.AddClaim(2, 0, false).MarkSilentDependent(2, 0)
				b.MarkSilentDependent(1, 3).AddClaim(1, 3, false)
				b.MarkSilentDependent(0, 3).AddClaim(0, 3, true) // absorbed, no conflict
				b.AddClaim(1, 2, false).AddClaim(3, 1, false).MarkSilentDependent(1, 2)
			},
			wantErr: "claims: pair marked both claimed and silent-dependent: (source=1, assertion=2)",
		},
		{
			name: "out of range names the first bad call",
			n:    2, m: 3,
			calls: func(b *Builder) {
				b.AddClaim(0, 0, false)
				b.MarkSilentDependent(1, 9)
				b.AddClaim(-1, 0, true)
				b.AddClaim(5, 0, false)
			},
			wantErr: "claims: source or assertion index out of range: (source=1, assertion=9) with n=2, m=3",
		},
		{
			name: "dependent claim absorbs silent marks",
			n:    3, m: 2,
			calls: func(b *Builder) {
				b.MarkSilentDependent(1, 0).AddClaim(1, 0, true).MarkSilentDependent(1, 0)
				b.AddClaim(0, 0, false).MarkSilentDependent(2, 0).MarkSilentDependent(2, 0)
			},
			wantJSON: `{"sources":3,"assertions":2,"claims":[{"source":0,"assertion":0},` +
				`{"source":1,"assertion":0,"dependent":true}],"silentDependent":[{"source":2,"assertion":0}]}`,
		},
		{
			name: "duplicate claims OR their dependent flags",
			n:    2, m: 2,
			calls: func(b *Builder) {
				b.AddClaim(0, 1, false).AddClaim(1, 1, false).AddClaim(0, 1, true).AddClaim(0, 1, false)
				b.AddClaim(1, 1, false).AddClaim(1, 0, true).AddClaim(1, 0, true)
			},
			wantJSON: `{"sources":2,"assertions":2,"claims":[{"source":1,"assertion":0,"dependent":true},` +
				`{"source":0,"assertion":1,"dependent":true},{"source":1,"assertion":1}]}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(tc.n, tc.m)
			tc.calls(b)
			ds, err := b.Build()
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("Build error = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(ds)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.wantJSON {
				t.Fatalf("Build encodes as\n%s\nwant\n%s", got, tc.wantJSON)
			}
			sum := ds.Summarize()
			if sum.TotalClaims != ds.Sparse().Claims.NNZ() || sum.SilentDependent != ds.Sparse().Silent.NNZ() {
				t.Fatalf("summary %+v disagrees with the sparse view", sum)
			}
		})
	}
}

// TestFromRowsRejectsBadRows: FromRows accepts only valid, pairwise
// disjoint rows of one shape.
func TestFromRowsRejectsBadRows(t *testing.T) {
	rows := func(n, m int, row ...int32) *model.CSR {
		r := &model.CSR{NumRows: n, NumCols: m, RowPtr: make([]int32, n+1), Col: row}
		r.RowPtr[n] = int32(len(row)) // every nonzero sits in the last row
		return r
	}
	cases := []struct {
		name       string
		d0, d1, s1 *model.CSR
		want       string
	}{
		{"shape", rows(2, 3), rows(2, 4), rows(2, 3), "claims: rows of 2×3 and 2×4"},
		{"unsorted", rows(2, 3, 2, 1), rows(2, 3), rows(2, 3), "indices not strictly increasing"},
		{"out of range", rows(2, 3), rows(2, 3, 3), rows(2, 3), "outside [0, 3)"},
		{"claimed twice", rows(2, 3, 1), rows(2, 3, 1), rows(2, 3), "(source=1, assertion=1) in two rows"},
		{"claimed and silent", rows(2, 3, 0, 2), rows(2, 3), rows(2, 3, 2), "(source=1, assertion=2) in two rows"},
	}
	for _, tc := range cases {
		if _, err := FromRows(tc.d0, tc.d1, tc.s1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FromRows error = %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
	ds, err := FromRows(rows(2, 3, 0), rows(2, 3, 1), rows(2, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumClaims() != 2 || ds.NumDependentClaims() != 1 || !reflect.DeepEqual(ds.SilentDependents(2), []int32{1}) {
		t.Fatalf("FromRows built %+v", ds.Summarize())
	}
}
