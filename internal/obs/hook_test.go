package obs

import (
	"context"
	"strings"
	"testing"
	"time"

	"depsense/internal/core"
	"depsense/internal/randutil"
	"depsense/internal/runctx"
	"depsense/internal/synthetic"
)

// TestHookExporterCounting feeds a synthetic firing sequence covering every
// stop reason and checks the counting rules: non-final firings and the
// converged final firing are work units; cap/cancel final firings repeat an
// already-counted unit and only feed the runs counter.
func TestHookExporterCounting(t *testing.T) {
	reg := NewRegistry()
	hook := HookExporter(reg)

	// A converged run: 3 iterations, convergence detected on the third.
	hook(runctx.Iteration{Algorithm: "EM-Ext", N: 1, LogLikelihood: -10, HasLL: true, Elapsed: time.Millisecond})
	hook(runctx.Iteration{Algorithm: "EM-Ext", N: 2, LogLikelihood: -8, HasLL: true, Elapsed: 2 * time.Millisecond})
	hook(runctx.Iteration{Algorithm: "EM-Ext", N: 3, LogLikelihood: -7, HasLL: true, Elapsed: 3 * time.Millisecond,
		Done: true, Stopped: runctx.StopConverged})
	// A capped run: 2 iterations then the extra final firing.
	hook(runctx.Iteration{Algorithm: "Voting", N: 1, Elapsed: time.Millisecond})
	hook(runctx.Iteration{Algorithm: "Voting", N: 2, Elapsed: 2 * time.Millisecond})
	hook(runctx.Iteration{Algorithm: "Voting", N: 2, Elapsed: 2 * time.Millisecond,
		Done: true, Stopped: runctx.StopIterationCap})
	// A cancelled run: only the final firing.
	hook(runctx.Iteration{Algorithm: "gibbs-bound", N: 0, Elapsed: time.Millisecond,
		Done: true, Stopped: runctx.StopCancelled})

	alg := func(a string) Label { return L("algorithm", a) }
	if got := reg.Counter(MetricIterations, "", alg("EM-Ext")).Value(); got != 3 {
		t.Fatalf("EM-Ext iterations = %v, want 3", got)
	}
	if got := reg.Counter(MetricIterations, "", alg("Voting")).Value(); got != 2 {
		t.Fatalf("Voting iterations = %v, want 2", got)
	}
	if got := reg.Counter(MetricIterations, "", alg("gibbs-bound")).Value(); got != 0 {
		t.Fatalf("gibbs-bound iterations = %v, want 0", got)
	}
	if got := reg.Gauge(MetricLogLikelihood, "", alg("EM-Ext")).Value(); got != -7 {
		t.Fatalf("log-likelihood gauge = %v, want -7", got)
	}
	for _, tc := range []struct {
		alg, stopped string
	}{
		{"EM-Ext", runctx.StopConverged},
		{"Voting", runctx.StopIterationCap},
		{"gibbs-bound", runctx.StopCancelled},
	} {
		if got := reg.Counter(MetricRuns, "", alg(tc.alg), L("stopped", tc.stopped)).Value(); got != 1 {
			t.Fatalf("runs{%s,%s} = %v, want 1", tc.alg, tc.stopped, got)
		}
	}
	// Latency: three EM-Ext deltas of 1ms each.
	h := reg.Histogram(MetricIterationSeconds, "", nil, alg("EM-Ext"))
	if h.Count() != 3 || h.Sum() < 0.0029 || h.Sum() > 0.0031 {
		t.Fatalf("EM-Ext latency histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

// TestHookExporterZeroLogLikelihood checks the HasLL disambiguation: a
// genuine log-likelihood of exactly 0.0 (a perfectly explained dataset)
// updates the gauge, while a firing without HasLL — a heuristic round —
// leaves it alone even when the zero-valued field would previously have
// been mistaken for "absent".
func TestHookExporterZeroLogLikelihood(t *testing.T) {
	reg := NewRegistry()
	hook := HookExporter(reg)
	alg := L("algorithm", "EM-Ext")

	hook(runctx.Iteration{Algorithm: "EM-Ext", N: 1, LogLikelihood: -5, HasLL: true, Elapsed: time.Millisecond})
	hook(runctx.Iteration{Algorithm: "EM-Ext", N: 2, LogLikelihood: 0, HasLL: true, Elapsed: 2 * time.Millisecond})
	if got := reg.Gauge(MetricLogLikelihood, "", alg).Value(); got != 0 {
		t.Fatalf("gauge after genuine 0.0 log-likelihood = %v, want 0", got)
	}

	// A heuristic firing carries no log-likelihood: no gauge series may
	// appear for its algorithm, even though the zero-valued field would
	// previously have been indistinguishable from "absent".
	hook(runctx.Iteration{Algorithm: "Voting", N: 1, Elapsed: time.Millisecond})
	var b strings.Builder
	if err := reg.Render(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), MetricLogLikelihood+`{algorithm="Voting"}`) {
		t.Fatalf("gauge series created for a firing without HasLL:\n%s", b.String())
	}
	if !strings.Contains(b.String(), MetricLogLikelihood+`{algorithm="EM-Ext"} 0`) {
		t.Fatalf("genuine 0.0 log-likelihood not exported:\n%s", b.String())
	}
}

// TestHookExporterLiveRun attaches the exporter to a real EM run and checks
// the exported totals against the run's own result.
func TestHookExporterLiveRun(t *testing.T) {
	w, err := synthetic.Generate(synthetic.EstimatorConfig(), randutil.New(7))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	ctx := runctx.WithHook(context.Background(), HookExporter(reg))
	res, err := core.RunCtx(ctx, w.Dataset, core.VariantExt, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := 0.0
	for _, a := range []string{"EM-Ext", "EM-Social"} {
		got += reg.Counter(MetricIterations, "", L("algorithm", a)).Value()
	}
	if got < float64(res.Iterations) {
		t.Fatalf("exported iterations %v < result iterations %d", got, res.Iterations)
	}
	stopped := reg.Counter(MetricRuns, "", L("algorithm", "EM-Ext"), L("stopped", res.Stopped)).Value() +
		reg.Counter(MetricRuns, "", L("algorithm", "EM-Social"), L("stopped", res.Stopped)).Value()
	if stopped == 0 {
		t.Fatalf("no run recorded with stop reason %q", res.Stopped)
	}
	var b strings.Builder
	if err := reg.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), MetricIterations) || !strings.Contains(b.String(), MetricRuns) {
		t.Fatalf("render missing estimator metrics:\n%s", b.String())
	}
}

// TestHookExporterSteadyStateAllocFree: once an algorithm's series exist, a
// non-final firing updates them through the cached handles and allocates
// nothing.
func TestHookExporterSteadyStateAllocFree(t *testing.T) {
	reg := NewRegistry()
	hook := HookExporter(reg)
	it := runctx.Iteration{Algorithm: "EM-Social", N: 1, LogLikelihood: -3, HasLL: true, Elapsed: time.Millisecond}
	hook(it) // the first firing creates the series
	if allocs := testing.AllocsPerRun(50, func() {
		it.N++
		it.Elapsed += time.Millisecond
		hook(it)
	}); allocs != 0 {
		t.Fatalf("%.1f allocs per non-final firing, want 0", allocs)
	}
	if got := reg.Counter(MetricIterations, "", L("algorithm", "EM-Social")).Value(); got != 52 {
		t.Fatalf("iterations = %v, want 52", got)
	}
}
