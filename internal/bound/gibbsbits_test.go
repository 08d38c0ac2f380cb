package bound

// Gibbs-bits golden: the exact float64 bits of the Gibbs bound
// (ForDatasetContext with MethodApprox and column sampling) on a few seeded
// synthetic worlds, at the default sweep budget and at two smaller ones.
// Any change to the chain, its stop rule or the column reduction that moves
// a bit fails this test.
//
// Regenerate deliberately with:
//
//	go test ./internal/bound/ -run TestGibbsBoundBits -update

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"depsense/internal/randutil"
	"depsense/internal/synthetic"
)

var update = flag.Bool("update", false, "rewrite testdata golden fixtures")

func TestGibbsBoundBits(t *testing.T) {
	var got bytes.Buffer
	for _, seed := range []int64{1, 2, 3} {
		w, err := synthetic.Generate(synthetic.DefaultConfig(), randutil.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, sweeps := range []int{0, 1500, 5000} {
			opts := DatasetOptions{Method: MethodApprox, GibbsSweeps: sweeps, MaxColumns: 6}
			res, err := ForDatasetContext(context.Background(), w.Dataset, w.TrueParams, opts, randutil.New(seed+100))
			if err != nil {
				t.Fatalf("seed %d, sweeps %d: %v", seed, sweeps, err)
			}
			fmt.Fprintf(&got, "world %d budget %d: sweeps %d", seed, sweeps, res.Sweeps)
			for _, f := range []struct {
				name string
				v    float64
			}{{"err", res.Err}, {"fp", res.FalsePos}, {"fn", res.FalseNeg}, {"stderr", res.StdErr}} {
				fmt.Fprintf(&got, " %s %016x", f.name, math.Float64bits(f.v))
			}
			got.WriteByte('\n')
		}
	}

	path := filepath.Join("testdata", "gibbs_bits.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Gibbs bound bits moved:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
