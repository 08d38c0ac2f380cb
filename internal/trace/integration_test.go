package trace_test

import (
	"bytes"
	"context"
	"testing"

	"depsense/internal/bound"
	"depsense/internal/runctx"
	"depsense/internal/trace"
)

// column builds a two-component bound column with uniform per-source
// on-probabilities.
func column(n int, p1, p0, z float64) bound.Column {
	c := bound.Column{P1: make([]float64, n), P0: make([]float64, n), Z: z}
	for i := 0; i < n; i++ {
		c.P1[i] = p1
		c.P0[i] = p0
	}
	return c
}

// TestTraceDeterministicAcrossWorkers is the trace-layer mirror of the
// metrics determinism test: an exact-bound enumeration recorded at
// Workers=1 and Workers=4 must serialize to byte-identical JSONL once
// timing fields are stripped — scheduler interleaving must never leak into
// the record. n = 18 splits the enumeration into eight full blocks, each of
// which fires a hook from its worker goroutine.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	c := column(18, 0.8, 0.25, 0.4)
	marshal := func(workers int) []byte {
		b := trace.NewBuilder("exact", "test", nil)
		ctx := runctx.WithHook(context.Background(), b.Hook())
		if _, err := bound.Exact(ctx, c, workers); err != nil {
			t.Fatal(err)
		}
		tr := b.Finish(trace.StatusOK, "")
		if got := tr.Events(); got != 1<<(18-15) {
			t.Fatalf("workers=%d: %d events, want one per block", workers, got)
		}
		line, err := trace.Marshal(tr.StripTimings())
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	serial, parallel := marshal(1), marshal(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("Workers leaked into the trace:\nworkers=1: %s\nworkers=4: %s", serial, parallel)
	}
}
