package bound

import (
	"context"
	"math"
	"testing"

	"depsense/internal/claims"
	"depsense/internal/model"
	"depsense/internal/randutil"
	"depsense/internal/synthetic"
)

func smallWorldParams(t *testing.T) (*claims.Dataset, *model.Params) {
	t.Helper()
	cfg := synthetic.DefaultConfig()
	cfg.Sources = 10
	cfg.Assertions = 30
	cfg.Trees = synthetic.FixedInt(4)
	w, err := synthetic.Generate(cfg, randutil.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return w.Dataset, w.TrueParams
}

func TestForDatasetExactVsApprox(t *testing.T) {
	ds, params := smallWorldParams(t)
	rng := randutil.New(7)
	exact, err := ForDatasetContext(context.Background(), ds, params, DatasetOptions{Method: MethodExact}, rng)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := ForDatasetContext(context.Background(), ds, params, DatasetOptions{
		Method:      MethodApprox,
		GibbsSweeps: 20000,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(exact.Err - approx.Err); diff > 0.015 {
		t.Fatalf("dataset bound: exact %v vs approx %v (diff %v)", exact.Err, approx.Err, diff)
	}
	if exact.Err <= 0 || exact.Err >= 0.5 {
		t.Fatalf("implausible exact bound %v", exact.Err)
	}
}

func TestForDatasetColumnDedup(t *testing.T) {
	// Two assertions with identical dependency columns must yield the same
	// bound as one, and DistinctColumns must see through the duplication.
	b := claims.NewBuilder(3, 4)
	for j := 0; j < 4; j++ {
		b.AddClaim(0, j, false)
		b.MarkSilentDependent(1, j)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := DistinctColumns(ds); got != 1 {
		t.Fatalf("DistinctColumns = %d, want 1", got)
	}
	p := model.NewParams(3, 0.5)
	for i := range p.Sources {
		p.Sources[i] = model.SourceParams{A: 0.8, B: 0.2, F: 0.7, G: 0.4}
	}
	whole, err := ForDatasetContext(context.Background(), ds, p, DatasetOptions{Method: MethodExact}, randutil.New(1))
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewColumn(p, ds.DependencyColumn(0))
	if err != nil {
		t.Fatal(err)
	}
	single, err := Exact(context.Background(), col, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(whole.Err-single.Err) > 1e-12 {
		t.Fatalf("dedup bound %v != column bound %v", whole.Err, single.Err)
	}
}

func TestForDatasetColumnSampling(t *testing.T) {
	ds, params := smallWorldParams(t)
	rng := randutil.New(9)
	full, err := ForDatasetContext(context.Background(), ds, params, DatasetOptions{Method: MethodExact}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := ForDatasetContext(context.Background(), ds, params, DatasetOptions{Method: MethodExact, MaxColumns: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Sampling trades accuracy for speed; it must stay in the ballpark.
	if math.Abs(full.Err-sampled.Err) > 0.15 {
		t.Fatalf("sampled bound too far off: %v vs %v", sampled.Err, full.Err)
	}
}

func TestForDatasetValidation(t *testing.T) {
	ds, params := smallWorldParams(t)
	rng := randutil.New(1)
	empty, err := claims.NewBuilder(3, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ForDatasetContext(context.Background(), empty, params, DatasetOptions{}, rng); err == nil {
		t.Fatal("empty dataset accepted")
	}
	wrong := model.NewParams(ds.N()+1, 0.5)
	if _, err := ForDatasetContext(context.Background(), ds, wrong, DatasetOptions{}, rng); err == nil {
		t.Fatal("mismatched params accepted")
	}
	if _, err := ForDatasetContext(context.Background(), ds, params, DatasetOptions{Method: Method(99)}, rng); err == nil {
		t.Fatal("unknown method accepted")
	}
}
