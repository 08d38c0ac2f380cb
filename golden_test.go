package depsense

// Golden regression fixture: a seeded synthetic world, the EM-Ext estimate
// on it, and its exact error bound, frozen under testdata/. Any numeric
// drift in the estimator or the bound — an accidental reordering of a
// floating-point reduction, a changed default — fails this test. JSON's
// shortest-round-trip float encoding makes the comparison bit-exact.
//
// Regenerate deliberately with:
//
//	go test -run TestGoldenRegression -update .

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"depsense/internal/randutil"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures")

type goldenFixture struct {
	Posterior     []float64   `json:"posterior"`
	LogLikelihood float64     `json:"logLikelihood"`
	Iterations    int         `json:"iterations"`
	Params        *Params     `json:"params"`
	ExactBound    BoundResult `json:"exactBound"`
}

func computeGolden(workers int) (*goldenFixture, error) {
	cfg := DefaultSyntheticConfig()
	cfg.Sources = 12
	cfg.Assertions = 40
	w, err := GenerateSynthetic(cfg, randutil.New(2026))
	if err != nil {
		return nil, err
	}
	res, err := NewEMExt(EMOptions{Workers: workers}).RunContext(context.Background(), w.Dataset)
	if err != nil {
		return nil, err
	}
	b, err := ErrorBound(w.Dataset, w.TrueParams, BoundOptions{
		Method:  BoundExact,
		Workers: workers,
	}, randutil.New(1))
	if err != nil {
		return nil, err
	}
	return &goldenFixture{
		Posterior:     res.Posterior,
		LogLikelihood: res.LogLikelihood,
		Iterations:    res.Iterations,
		Params:        res.Params,
		ExactBound:    b,
	}, nil
}

func TestGoldenRegression(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	for _, workers := range []int{1, 4} {
		g, err := computeGolden(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')

		if *updateGolden {
			if workers != 1 {
				continue // one canonical fixture; workers=4 must match it below
			}
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s", path)
			continue
		}

		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read fixture (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: output drifted from %s\n%s\nregenerate deliberately with -update",
				workers, path, diffHint(want, got))
		}
	}
}

// diffHint locates the first differing line so drift reports are readable
// without an external diff tool.
func diffHint(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  fixture: %s\n  current: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: fixture %d, current %d", len(wl), len(gl))
}
