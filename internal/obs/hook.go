package obs

import (
	"sync"
	"time"

	"depsense/internal/runctx"
)

// Metric names exported by HookExporter, kept as constants so the serving
// layer and tests share one catalog (see DESIGN.md §10 for the full list).
const (
	// MetricIterations counts completed work units — EM iterations,
	// Gibbs sweep checkpoints, heuristic rounds — per algorithm.
	MetricIterations = "depsense_estimator_iterations_total"
	// MetricLogLikelihood gauges the latest data log-likelihood reported
	// by a model-based estimator (heuristics, which report none, leave it
	// untouched).
	MetricLogLikelihood = "depsense_estimator_log_likelihood"
	// MetricIterationSeconds is the per-iteration latency histogram.
	MetricIterationSeconds = "depsense_estimator_iteration_duration_seconds"
	// MetricRuns counts finished runs per algorithm and stop reason
	// (converged / iteration-cap / cancelled / deadline).
	MetricRuns = "depsense_estimator_runs_total"
)

// HookExporter adapts a Registry into a runctx.Hook: attach the returned
// hook with runctx.WithHook and every estimator iteration record lands in
// reg as
//
//   - MetricIterations{algorithm}: one increment per completed work unit,
//   - MetricLogLikelihood{algorithm}: the latest log-likelihood,
//   - MetricIterationSeconds{algorithm}: per-unit latency, derived from the
//     deltas of Iteration.Elapsed (which is cumulative per run),
//   - MetricRuns{algorithm,stopped}: one increment per final (Done) firing.
//
// A work unit is any non-final firing plus the final firing of a converged
// run (convergence is detected on the iteration itself); the extra final
// firings emitted on cancellation, deadline, and iteration-cap repeat an
// already-counted unit and only feed MetricRuns.
//
// Create one exporter per run or request: the exporter carries the
// last-elapsed state that turns cumulative Elapsed into per-unit latency,
// and that state must not be shared between runs. The registry may be (and
// usually is) shared process-wide. The hook is internally serialized, so it
// is safe under parallel fan-outs, but the latency deltas of concurrently
// interleaved runs of the same algorithm are meaningless.
//
// The exporter resolves each algorithm's series handles once, on the first
// firing that writes each series, and keeps them with that algorithm's
// last-elapsed state: a later work unit costs one map lookup and the series
// updates, with no label rendering, registry lock or allocation. Only the
// once-per-run MetricRuns increment goes through the registry.
func HookExporter(reg *Registry) runctx.Hook {
	var mu sync.Mutex
	algs := make(map[string]*algSeries)
	return func(it runctx.Iteration) {
		mu.Lock()
		defer mu.Unlock()
		a := algs[it.Algorithm]
		if a == nil {
			a = &algSeries{}
			algs[it.Algorithm] = a
		}
		if !it.Done || it.Stopped == runctx.StopConverged {
			if a.iters == nil {
				a.iters = reg.Counter(MetricIterations,
					"Completed estimator work units (EM iterations, Gibbs checkpoints, heuristic rounds) by algorithm.",
					L("algorithm", it.Algorithm))
			}
			a.iters.Inc()
			prev := a.last
			a.last = it.Elapsed
			if d := it.Elapsed - prev; d >= 0 {
				if a.seconds == nil {
					a.seconds = reg.Histogram(MetricIterationSeconds,
						"Per-work-unit estimator latency in seconds by algorithm.",
						nil, L("algorithm", it.Algorithm))
				}
				a.seconds.Observe(d.Seconds())
			}
		}
		if it.HasLL {
			if a.ll == nil {
				a.ll = reg.Gauge(MetricLogLikelihood,
					"Latest data log-likelihood reported by a model-based estimator, by algorithm.",
					L("algorithm", it.Algorithm))
			}
			a.ll.Set(it.LogLikelihood)
		}
		if it.Done {
			reg.Counter(MetricRuns,
				"Finished estimator runs by algorithm and stop reason.",
				L("algorithm", it.Algorithm), L("stopped", it.Stopped)).Inc()
		}
	}
}

// algSeries is one algorithm's cached series handles, each nil until the
// first firing that writes it, and the Elapsed of its last work unit.
type algSeries struct {
	iters   *Counter
	seconds *Histogram
	ll      *Gauge
	last    time.Duration
}
