package core

import (
	"context"
	"math"
	"testing"

	"depsense/internal/claims"
	"depsense/internal/model"
	"depsense/internal/randutil"
)

func TestDependentPairsPerSource(t *testing.T) {
	b := claims.NewBuilder(4, 3)
	b.AddClaim(0, 0, false)
	b.AddClaim(1, 0, true)
	b.MarkSilentDependent(2, 0)
	b.MarkSilentDependent(3, 1)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 1 dependent claim + 2 silent pairs over 4 sources.
	if got := DependentPairsPerSource(ds); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("density = %v, want 0.75", got)
	}
	empty, err := claims.NewBuilder(0, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if DependentPairsPerSource(empty) != 0 {
		t.Fatal("empty dataset density != 0")
	}
}

func TestDepModeAutoSwitches(t *testing.T) {
	// Dense synthetic world → joint; a sparse handmade one → plugin.
	w := genWorld(t, 20, 50, 3)
	if got := DependentPairsPerSource(w.Dataset); got < 5 {
		t.Skipf("world unexpectedly sparse (%v)", got)
	}
	if depMode(w.Dataset, Options{}) != DepModeJoint {
		t.Fatal("dense world not routed to joint mode")
	}

	b := claims.NewBuilder(50, 20)
	for i := 0; i < 20; i++ {
		b.AddClaim(i, i%20, false)
	}
	b.AddClaim(20, 0, true)
	sparse, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if depMode(sparse, Options{}) != DepModePlugin {
		t.Fatal("sparse dataset not routed to plugin mode")
	}
	// Explicit modes win.
	if depMode(sparse, Options{DepMode: DepModeJoint}) != DepModeJoint {
		t.Fatal("explicit joint overridden")
	}
	if depMode(w.Dataset, Options{DepMode: DepModePlugin}) != DepModePlugin {
		t.Fatal("explicit plugin overridden")
	}
}

func TestPooledDependentChannelDirection(t *testing.T) {
	// Dependent claims sit on confidently-false assertions: g must exceed f.
	b := claims.NewBuilder(6, 4)
	// Assertions 0,1: heavily supported (posterior high), no repeats,
	// but with silent-dependent watchers.
	for i := 0; i < 4; i++ {
		b.AddClaim(i, 0, false)
		b.AddClaim(i, 1, false)
	}
	b.MarkSilentDependent(4, 0)
	b.MarkSilentDependent(4, 1)
	// Assertions 2,3: one original plus dependent repeats, low posterior.
	b.AddClaim(0, 2, false)
	b.AddClaim(4, 2, true)
	b.AddClaim(5, 2, true)
	b.AddClaim(1, 3, false)
	b.AddClaim(5, 3, true)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	post := []float64{0.95, 0.9, 0.05, 0.1}
	f, g := PooledDependentChannel(ds, post)
	if g <= f {
		t.Fatalf("f=%v g=%v: repeats on rumors must push g above f", f, g)
	}
}

func TestPooledDependentChannelNoDependents(t *testing.T) {
	b := claims.NewBuilder(2, 2)
	b.AddClaim(0, 0, false)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f, g := PooledDependentChannel(ds, []float64{0.5, 0.5})
	if f != 0.5 || g != 0.5 {
		t.Fatalf("no-dependents channel = (%v,%v), want neutral", f, g)
	}
}

func TestPosteriorMatchesEMOutput(t *testing.T) {
	w := genWorld(t, 10, 30, 44)
	res, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{DepMode: DepModeJoint})
	if err != nil {
		t.Fatal(err)
	}
	post, ll, err := PosteriorOpts(w.Dataset, res.Params, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ll-res.LogLikelihood) > 1e-9 {
		t.Fatalf("ll = %v vs %v", ll, res.LogLikelihood)
	}
	for j := range post {
		if math.Abs(post[j]-res.Posterior[j]) > 1e-12 {
			t.Fatalf("posterior %d: %v vs %v", j, post[j], res.Posterior[j])
		}
	}
}

func TestPosteriorValidation(t *testing.T) {
	w := genWorld(t, 5, 10, 1)
	if _, _, err := PosteriorOpts(w.Dataset, model.NewParams(3, 0.5), Options{}); err == nil {
		t.Fatal("mismatched params accepted")
	}
	bad := model.NewParams(5, 0.5)
	bad.Sources[0].A = -1
	if _, _, err := PosteriorOpts(w.Dataset, bad, Options{}); err == nil {
		t.Fatal("invalid params accepted")
	}
	empty, err := claims.NewBuilder(0, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := PosteriorOpts(empty, model.NewParams(1, 0.5), Options{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestPosteriorDoesNotMutateParams(t *testing.T) {
	w := genWorld(t, 5, 10, 2)
	p := model.NewParams(5, 0)
	for i := range p.Sources {
		p.Sources[i] = model.SourceParams{A: 1, B: 0, F: 1, G: 0} // boundary values
	}
	if _, _, err := PosteriorOpts(w.Dataset, p, Options{}); err != nil {
		t.Fatal(err)
	}
	if p.Z != 0 || p.Sources[0].A != 1 {
		t.Fatal("Posterior clamped the caller's params in place")
	}
}

// TestPluginModeRunsOnSparseData exercises the full plugin path through the
// public entry point.
func TestPluginModeRunsOnSparseData(t *testing.T) {
	// Twitter-sparse: 200 sources, 150 assertions, ~1.3 claims/source.
	rng := randutil.New(12)
	b := claims.NewBuilder(200, 150)
	for i := 0; i < 200; i++ {
		j := rng.Intn(150)
		dep := rng.Float64() < 0.3
		b.AddClaim(i, j, dep)
		if dep {
			b.MarkSilentDependent((i+1)%200, j)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if depMode(ds, Options{}) != DepModePlugin {
		t.Skip("dataset unexpectedly dense")
	}
	res, err := RunCtx(context.Background(), ds, VariantExt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posterior) != 150 {
		t.Fatalf("posterior length %d", len(res.Posterior))
	}
	for j, p := range res.Posterior {
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("posterior[%d] = %v", j, p)
		}
	}
	// The plugin's dependent channel must be shared across sources.
	f0, g0 := res.Params.Sources[0].F, res.Params.Sources[0].G
	for i, s := range res.Params.Sources {
		if s.F != f0 || s.G != g0 {
			t.Fatalf("source %d has non-pooled dependent channel", i)
		}
	}
}

// TestJointVsPluginDiffer confirms the two strategies are actually
// different estimators on the same data.
func TestJointVsPluginDiffer(t *testing.T) {
	w := genWorld(t, 20, 50, 9)
	joint, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{DepMode: DepModeJoint})
	if err != nil {
		t.Fatal(err)
	}
	plug, err := RunCtx(context.Background(), w.Dataset, VariantExt, Options{DepMode: DepModePlugin})
	if err != nil {
		t.Fatal(err)
	}
	if samePosteriors(joint.Posterior, plug.Posterior) {
		t.Fatal("joint and plugin produced identical posteriors")
	}
}
