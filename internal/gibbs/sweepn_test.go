package gibbs

import (
	"context"
	"errors"
	"testing"

	"depsense/internal/randutil"
)

func newTestChain(t *testing.T, seed int64) *ProductMixtureChain {
	t.Helper()
	prior := [2]float64{0.4, 0.6}
	pOn := [2][]float64{
		{0.8, 0.2, 0.7, 0.3, 0.5},
		{0.1, 0.9, 0.4, 0.6, 0.2},
	}
	c, err := NewProductMixtureChain(prior, pOn, randutil.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChainSweepNPreCancelled(t *testing.T) {
	c := newTestChain(t, 3)
	before := append([]bool(nil), c.State()...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done, err := c.SweepN(ctx, 100)
	if done != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("done=%d err=%v", done, err)
	}
	for i, b := range c.State() {
		if b != before[i] {
			t.Fatalf("state mutated by a pre-cancelled SweepN at bit %d", i)
		}
	}
}

func TestChainSweepNMatchesSweepLoop(t *testing.T) {
	const sweeps = 300 // crosses a refreshEvery boundary on neither chain
	a := newTestChain(t, 11)
	b := newTestChain(t, 11)
	done, err := a.SweepN(context.Background(), sweeps)
	if done != sweeps || err != nil {
		t.Fatalf("done=%d err=%v", done, err)
	}
	for i := 0; i < sweeps; i++ {
		b.Sweep()
	}
	for i := range a.State() {
		if a.State()[i] != b.State()[i] {
			t.Fatalf("SweepN and Sweep loop diverge at bit %d", i)
		}
	}
}

func TestChainSweepNPartialIsDeterministic(t *testing.T) {
	// Two identically-seeded chains cancelled at the same sweep count land
	// in the same state.
	run := func() (int, []bool, error) {
		c := newTestChain(t, 21)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := 0
		var err error
		for done < 50 {
			var d int
			d, err = c.SweepN(ctx, 1)
			done += d
			if err != nil {
				break
			}
			if done == 20 {
				cancel()
			}
		}
		return done, append([]bool(nil), c.State()...), err
	}
	d1, s1, err1 := run()
	d2, s2, err2 := run()
	if !errors.Is(err1, context.Canceled) || !errors.Is(err2, context.Canceled) {
		t.Fatalf("errs = %v, %v", err1, err2)
	}
	if d1 != 20 || d2 != 20 {
		t.Fatalf("completed sweeps = %d, %d, want 20", d1, d2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("partial states diverge at bit %d", i)
		}
	}
}
