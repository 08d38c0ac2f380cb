package bound

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"depsense/internal/claims"
	"depsense/internal/model"
	"depsense/internal/randutil"
	"depsense/internal/runctx"
)

// referenceConvolution is the per-source lattice DP the shared kernel
// replaced, kept as its oracle: every source convolved in index order, one
// two-valued shift at a time, each saturating at the lattice edges. edge is
// the mass it leaves in the two edge bins; only there does the order
// sources are convolved in change the result beyond rounding.
func referenceConvolution(c Column, opts ConvolutionOptions) (res Result, edge float64) {
	opts = opts.normalized()
	z := clampOpen(c.Z)
	threshold := math.Log((1 - z) / z)
	bins := opts.Bins
	step := 2 * halfWidth / float64(bins)
	start := clampBin(bins/2-int(math.Round(threshold/step)), bins)
	dist1 := make([]float64, bins)
	dist0 := make([]float64, bins)
	next1 := make([]float64, bins)
	next0 := make([]float64, bins)
	dist1[start] = 1
	dist0[start] = 1
	shift := func(dst, src []float64, onBins, offBins int, pOn float64) {
		clear(dst)
		for k, mass := range src {
			if mass == 0 {
				continue
			}
			dst[clampBin(k+onBins, bins)] += mass * pOn
			dst[clampBin(k+offBins, bins)] += mass * (1 - pOn)
		}
	}
	for i := range c.P1 {
		p1, p0 := clampOpen(c.P1[i]), clampOpen(c.P0[i])
		onBins := int(math.Round(math.Log(p1/p0) / step))
		offBins := int(math.Round(math.Log((1-p1)/(1-p0)) / step))
		shift(next1, dist1, onBins, offBins, p1)
		shift(next0, dist0, onBins, offBins, p0)
		dist1, next1 = next1, dist1
		dist0, next0 = next0, dist0
	}
	for k := 0; k < bins; k++ {
		if k >= bins/2 {
			res.FalsePos += (1 - z) * dist0[k]
		} else {
			res.FalseNeg += z * dist1[k]
		}
	}
	res.Err = res.FalsePos + res.FalseNeg
	return res, dist1[0] + dist1[bins-1] + dist0[0] + dist0[bins-1]
}

// oracleTol is how far the shared kernel may sit from the reference DP
// wherever the reference leaves less than oracleTol in the edge bins.
const oracleTol = 1e-12

func resultsClose(a, b Result, tol float64) bool {
	return math.Abs(a.Err-b.Err) <= tol &&
		math.Abs(a.FalsePos-b.FalsePos) <= tol &&
		math.Abs(a.FalseNeg-b.FalseNeg) <= tol
}

// regimeProb draws a claim probability from one of the regimes the kernel
// must handle: within reach of the clamp with probability strong, and
// otherwise a tiny fitted rate, a moderate one, or a dependent-mode rate of
// at least 1/2.
func regimeProb(rng *rand.Rand, strong, clamp float64) float64 {
	if rng.Float64() < strong {
		if rng.Intn(2) == 0 {
			return clamp * rng.Float64()
		}
		return 1 - clamp*rng.Float64()
	}
	switch u := rng.Float64(); {
	case u < 0.6:
		return 1e-4 + 1e-2*rng.Float64()
	case u < 0.8:
		return 0.05 + 0.5*rng.Float64()
	default:
		return 0.5 + 0.5*rng.Float64()
	}
}

// randomBoundCase draws an n-source, m-assertion dataset with random claims
// and random D, and parameters whose dependent mode (f, g) is at least 1/2
// for most sources. Every third assertion has most sources dependent.
func randomBoundCase(rng *rand.Rand, n, m int) (*claims.Dataset, *model.Params) {
	b := claims.NewBuilder(n, m)
	for j := 0; j < m; j++ {
		depRate := 0.15
		if j%3 == 0 {
			depRate = 0.8
		}
		for i := 0; i < n; i++ {
			dep := rng.Float64() < depRate
			switch {
			case rng.Float64() < 0.2:
				b.AddClaim(i, j, dep)
			case dep:
				b.MarkSilentDependent(i, j)
			}
		}
	}
	ds, err := b.Build()
	if err != nil {
		panic(err)
	}
	p := model.NewParams(n, 0.05+0.9*rng.Float64())
	for i := range p.Sources {
		a := regimeProb(rng, 0.05, 1e-5)
		p.Sources[i] = model.SourceParams{
			A: a, B: math.Min(0.99, a*(0.5+rng.Float64())),
			F: 0.5 + 0.5*rng.Float64(), G: 0.5 + 0.5*rng.Float64(),
		}
		if rng.Intn(4) == 0 {
			p.Sources[i].F, p.Sources[i].G = regimeProb(rng, 0.05, 1e-5), regimeProb(rng, 0.05, 1e-5)
		}
	}
	return ds, p
}

// checkAgainstReference compares every distinct column of the kernel with
// the reference DP and the weighted dataset Result with the reference's
// weighted sum. It returns how many columns were comparable (edge mass
// below oracleTol) and whether the whole dataset was.
func checkAgainstReference(t testing.TB, ds *claims.Dataset, p *model.Params, opts ConvolutionOptions) (compared, total int, whole bool) {
	t.Helper()
	groups := distinctColumns(ds)
	got, err := convolveGroups(context.Background(), groups, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want Result
	weight := 0.0
	whole = true
	dense := make([]bool, ds.N())
	for g, grp := range groups {
		clear(dense)
		for _, s := range grp.deps {
			dense[s] = true
		}
		col, err := NewColumn(p, dense)
		if err != nil {
			t.Fatal(err)
		}
		ref, edge := referenceConvolution(col, opts)
		if math.IsNaN(got[g].Err) {
			t.Fatalf("column %d: NaN bound", g)
		}
		w := float64(grp.count)
		want.Err += w * ref.Err
		want.FalsePos += w * ref.FalsePos
		want.FalseNeg += w * ref.FalseNeg
		weight += w
		if edge >= oracleTol {
			whole = false
			continue
		}
		compared++
		if !resultsClose(got[g], ref, oracleTol) {
			t.Fatalf("column %d (%d dependents): kernel %+v, reference %+v", g, len(grp.deps), got[g], ref)
		}
	}
	if whole {
		want.Err /= weight
		want.FalsePos /= weight
		want.FalseNeg /= weight
		res, err := ForDatasetContext(context.Background(), ds, p, DatasetOptions{Method: MethodConvolution, Convolution: opts}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsClose(res, want, oracleTol) {
			t.Fatalf("weighted: kernel %+v, reference %+v", res, want)
		}
	}
	return compared, len(groups), whole
}

// TestConvolutionMatchesExact: the DP approximation must track exact
// enumeration tightly on random small columns. The Err tolerance is tight;
// the FP/FN split gets more slack because a claim pattern whose likelihood
// ratio lands exactly on the decision boundary contributes the same error
// mass to either side, and lattice rounding may tip such ties the other
// way than exact enumeration's w1 >= w0 rule does.
func TestConvolutionMatchesExact(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := randutil.New(seed)
		n := 1 + rng.Intn(12)
		col := randomColumn(rng, n)
		exact, err := Exact(context.Background(), col, 0)
		if err != nil {
			return false
		}
		conv, err := Convolution(col, ConvolutionOptions{})
		if err != nil {
			return false
		}
		return math.Abs(exact.Err-conv.Err) < 2e-3 &&
			math.Abs(exact.FalsePos-conv.FalsePos) < 2e-2 &&
			math.Abs(exact.FalseNeg-conv.FalseNeg) < 2e-2
	}, &quick.Config{MaxCount: 80, Rand: randutil.New(20260706)})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConvolutionSingleSource(t *testing.T) {
	col := Column{P1: []float64{0.9}, P0: []float64{0.2}, Z: 0.5}
	res, err := Convolution(col, ConvolutionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Err-0.15) > 1e-3 {
		t.Fatalf("Err = %v, want 0.15", res.Err)
	}
}

func TestConvolutionLargeN(t *testing.T) {
	// Far beyond exact enumeration's reach: 500 sources. The bound must be
	// finite, tiny (massive evidence), and decomposed consistently.
	rng := randutil.New(3)
	n := 500
	col := Column{P1: make([]float64, n), P0: make([]float64, n), Z: 0.4}
	for i := 0; i < n; i++ {
		col.P1[i] = 0.5 + 0.3*rng.Float64()
		col.P0[i] = 0.1 + 0.3*rng.Float64()
	}
	res, err := Convolution(col, ConvolutionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err < 0 || res.Err > 0.05 {
		t.Fatalf("500 informative sources left Err = %v", res.Err)
	}
	if math.Abs(res.Err-(res.FalsePos+res.FalseNeg)) > 1e-12 {
		t.Fatal("decomposition broken")
	}
}

func TestConvolutionAgreesWithGibbsLargeN(t *testing.T) {
	// Cross-validate the two tractable methods against each other where
	// exact enumeration is impossible (n = 60).
	rng := randutil.New(9)
	col := randomColumn(rng, 60)
	conv, err := Convolution(col, ConvolutionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gibbs, err := ApproxContext(context.Background(), col, 30000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(conv.Err - gibbs.Err); diff > 0.02 {
		t.Fatalf("convolution %v vs gibbs %v (diff %v)", conv.Err, gibbs.Err, diff)
	}
}

func TestConvolutionResolutionTradeoff(t *testing.T) {
	rng := randutil.New(11)
	col := randomColumn(rng, 10)
	exact, err := Exact(context.Background(), col, 0)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Convolution(col, ConvolutionOptions{Bins: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Convolution(col, ConvolutionOptions{Bins: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fine.Err-exact.Err) > math.Abs(coarse.Err-exact.Err)+1e-9 {
		t.Fatalf("finer grid did not improve: coarse %v fine %v exact %v",
			coarse.Err, fine.Err, exact.Err)
	}
}

func TestConvolutionValidatesColumn(t *testing.T) {
	if _, err := Convolution(Column{}, ConvolutionOptions{}); err == nil {
		t.Fatal("empty column accepted")
	}
}

// TestConvolutionMatchesReference: on single columns, including strong
// claimers at the ±20.7-logit clamp, dependent-mode rates ≥ 1/2 and
// hundreds of sources, the shared kernel agrees with the per-source DP
// wherever the DP leaves no mass in the edge bins.
func TestConvolutionMatchesReference(t *testing.T) {
	rng := randutil.New(20261017)
	compared := 0
	const cases = 120
	for c := 0; c < cases; c++ {
		n := 1 + rng.Intn(300)
		col := Column{P1: make([]float64, n), P0: make([]float64, n), Z: rng.Float64()}
		// Mostly weakly informative sources, as fitted columns are, plus
		// about two strong ones.
		strong := 2 / float64(n)
		for i := range col.P1 {
			col.P1[i] = regimeProb(rng, strong, 1e-8)
			if rng.Float64() < strong {
				col.P0[i] = regimeProb(rng, 1, 1e-8)
			} else {
				col.P0[i] = math.Min(0.99, col.P1[i]*(0.7+0.6*rng.Float64()))
			}
		}
		opts := ConvolutionOptions{Bins: 1 << (8 + rng.Intn(6))}
		got, err := Convolution(col, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, edge := referenceConvolution(col, opts)
		if edge >= oracleTol {
			continue
		}
		compared++
		if !resultsClose(got, want, oracleTol) {
			t.Fatalf("case %d (n=%d, bins=%d): kernel %+v, reference %+v", c, n, opts.Bins, got, want)
		}
	}
	t.Logf("%d of %d columns comparable", compared, cases)
	if compared < cases/4 {
		t.Fatalf("only %d of %d columns were comparable", compared, cases)
	}
}

// TestForDatasetConvolutionMatchesReference: over random datasets with
// random D and θ, every distinct column and the weighted Result agree
// with the reference DP.
func TestForDatasetConvolutionMatchesReference(t *testing.T) {
	rng := randutil.New(17)
	compared, total, wholes := 0, 0, 0
	for c := 0; c < 40; c++ {
		ds, p := randomBoundCase(rng, 2+rng.Intn(60), 1+rng.Intn(40))
		cmp, tot, whole := checkAgainstReference(t, ds, p, ConvolutionOptions{Bins: 1 << 12})
		compared += cmp
		total += tot
		if whole {
			wholes++
		}
	}
	t.Logf("%d of %d columns comparable, %d whole datasets", compared, total, wholes)
	if compared < total/2 || wholes < 5 {
		t.Fatalf("too few comparable cases: %d of %d columns, %d whole datasets", compared, total, wholes)
	}
}

// TestForDatasetConvolutionMatchesExact: at n ≤ 16 the dataset bound
// tracks exact enumeration within TestConvolutionMatchesExact's
// tolerances.
func TestForDatasetConvolutionMatchesExact(t *testing.T) {
	rng := randutil.New(5)
	for c := 0; c < 20; c++ {
		ds, p := randomBoundCase(rng, 1+rng.Intn(16), 1+rng.Intn(12))
		exact, err := ForDatasetContext(context.Background(), ds, p, DatasetOptions{Method: MethodExact}, nil)
		if err != nil {
			t.Fatal(err)
		}
		conv, err := ForDatasetContext(context.Background(), ds, p, DatasetOptions{Method: MethodConvolution}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact.Err-conv.Err) >= 2e-3 ||
			math.Abs(exact.FalsePos-conv.FalsePos) >= 2e-2 ||
			math.Abs(exact.FalseNeg-conv.FalseNeg) >= 2e-2 {
			t.Fatalf("case %d: convolution %+v, exact %+v", c, conv, exact)
		}
	}
}

// TestForDatasetConvolutionCancelWithinOneNode: a cancel fired from the
// first tree node's hook stops the kernel before the next node.
func TestForDatasetConvolutionCancelWithinOneNode(t *testing.T) {
	ds, p := randomBoundCase(randutil.New(3), 40, 30)
	if DistinctColumns(ds) < 4 {
		t.Fatal("fixture needs a tree with several nodes")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var final runctx.Iteration
	ctx = runctx.WithHook(ctx, func(it runctx.Iteration) {
		final = it
		if it.N >= 1 && !it.Done {
			cancel()
		}
	})
	_, err := ForDatasetContext(ctx, ds, p, DatasetOptions{Method: MethodConvolution}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if !final.Done || final.Stopped != runctx.StopCancelled || final.N != 1 {
		t.Fatalf("final hook iteration = %+v, want done after node 1", final)
	}
}

// TestForDatasetNilGenerator: the deterministic methods run without a
// generator; Gibbs and column sampling report its absence instead of
// panicking.
func TestForDatasetNilGenerator(t *testing.T) {
	ds, p := smallWorldParams(t)
	if DistinctColumns(ds) < 2 {
		t.Fatal("fixture needs several distinct columns")
	}
	for _, m := range []Method{MethodExact, MethodConvolution} {
		if _, err := ForDatasetContext(context.Background(), ds, p, DatasetOptions{Method: m}, nil); err != nil {
			t.Fatalf("method %d without generator: %v", m, err)
		}
		if _, err := ForDatasetContext(context.Background(), ds, p, DatasetOptions{Method: m, MaxColumns: 1}, nil); !errors.Is(err, ErrNoGenerator) {
			t.Fatalf("method %d column sampling without generator: err = %v", m, err)
		}
	}
	if _, err := ForDatasetContext(context.Background(), ds, p, DatasetOptions{Method: MethodApprox}, nil); !errors.Is(err, ErrNoGenerator) {
		t.Fatalf("approx without generator: err = %v", err)
	}
}

// TestForDatasetDeterministicMethodsIgnoreGenerator: without column
// sampling, exact and convolution bounds draw nothing from the generator.
func TestForDatasetDeterministicMethodsIgnoreGenerator(t *testing.T) {
	ds, p := smallWorldParams(t)
	for _, m := range []Method{MethodExact, MethodConvolution} {
		rng := randutil.New(99)
		if _, err := ForDatasetContext(context.Background(), ds, p, DatasetOptions{Method: m}, rng); err != nil {
			t.Fatal(err)
		}
		if got, want := rng.Int63(), randutil.New(99).Int63(); got != want {
			t.Fatalf("method %d consumed the generator", m)
		}
	}
}

// FuzzForDatasetConvolution decodes a small dataset, θ and lattice from
// the fuzz bytes. The kernel must never panic or return NaN, and must
// agree with the reference DP per column and in the weighted Result
// wherever the reference leaves no mass in the edge bins.
func FuzzForDatasetConvolution(f *testing.F) {
	f.Add([]byte{3, 2, 0, 128, 10, 200, 30, 250, 7, 7, 7, 7, 255, 0, 1})
	f.Add([]byte{12, 6, 3, 17, 255, 255, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1, 99, 3, 200})
	f.Add([]byte{1, 1, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		prob := func() float64 { return (float64(next()) + 0.5) / 256 }
		n, m := 1+int(next()%12), 1+int(next()%8)
		opts := ConvolutionOptions{Bins: 1 << (4 + next()%9)}
		b := claims.NewBuilder(n, m)
		for j := 0; j < m; j++ {
			for i := 0; i < n; i++ {
				switch next() % 4 {
				case 1:
					b.AddClaim(i, j, false)
				case 2:
					b.AddClaim(i, j, true)
				case 3:
					b.MarkSilentDependent(i, j)
				}
			}
		}
		ds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		p := model.NewParams(n, prob())
		for i := range p.Sources {
			p.Sources[i] = model.SourceParams{A: prob(), B: prob(), F: prob(), G: prob()}
		}
		res, err := ForDatasetContext(context.Background(), ds, p, DatasetOptions{Method: MethodConvolution, Convolution: opts}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(res.Err) || math.IsNaN(res.FalsePos) || math.IsNaN(res.FalseNeg) {
			t.Fatalf("NaN bound %+v", res)
		}
		checkAgainstReference(t, ds, p, opts)
	})
}

// TestAddShiftedSaturates: a shift moves mass bin by bin inside the
// lattice and piles it into the edge bins beyond, including shifts that
// carry the whole support off either end.
func TestAddShiftedSaturates(t *testing.T) {
	const bins = 16
	src := make([]float64, bins)
	for k := 5; k <= 9; k++ {
		src[k] = float64(k)
	}
	for shift := -3 * bins; shift <= 3*bins; shift++ {
		want := make([]float64, bins)
		for k := 5; k <= 9; k++ {
			want[clampBin(k+shift, bins)] += src[k] * 0.5
		}
		got := make([]float64, bins)
		addShifted(got, src, 5, 9, shift, 0.5)
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("shift %d: bin %d = %v, want %v", shift, k, got[k], want[k])
			}
		}
	}
}
