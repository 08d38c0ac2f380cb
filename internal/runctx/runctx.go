// Package runctx is the run-lifecycle layer shared by every long-running
// computation in this repository: EM iterations (Algorithm 2), Gibbs sweeps
// (Algorithm 1), and the exact 2^n bound enumeration (Eq. 3). It makes runs
// cancellable and observable without widening each algorithm's signature
// beyond the standard context.Context:
//
//   - Cancellation rides on the context itself. Compute loops call Err at
//     iteration/sweep/block granularity and return the context's error
//     together with their deterministic partial state.
//   - Observability rides on a Hook attached with WithHook. Every layer
//     fires an Iteration record per unit of work (iteration, sweep
//     checkpoint, enumeration block) so callers can log progress, export
//     metrics, or cancel based on what they see.
//
// The Stop* constants name the reasons a run ends; factfind.Result.Stopped
// carries one of them so callers and tests can assert why, not just whether,
// a run stopped.
package runctx

import (
	"context"
	"errors"
	"time"
)

// Stop reasons recorded in factfind.Result.Stopped and Iteration.Stopped.
const (
	// StopConverged: the run met its convergence criterion.
	StopConverged = "converged"
	// StopIterationCap: the run exhausted its iteration/sweep budget
	// without converging.
	StopIterationCap = "iteration-cap"
	// StopCancelled: the context was cancelled mid-run.
	StopCancelled = "cancelled"
	// StopDeadline: the context's deadline expired mid-run.
	StopDeadline = "deadline"
)

// Iteration is one observable unit of work: an E/M iteration for the EM
// estimators, a checkpoint of Gibbs sweeps for the bound approximation, an
// enumeration block for the exact bound, or a belief/trust round for the
// heuristic baselines.
type Iteration struct {
	// Algorithm is the display name of the computation firing the hook
	// (e.g. "EM-Ext", "gibbs-bound", "exact-bound").
	Algorithm string
	// N is the 1-based iteration / round / checkpoint number.
	N int
	// LogLikelihood is the current data log-likelihood for model-based
	// estimators. HasLL distinguishes "no log-likelihood" (heuristics,
	// enumeration loops) from a genuine value — including a genuine 0.0.
	LogLikelihood float64
	// HasLL marks LogLikelihood as meaningful. Observers must gate on it
	// rather than comparing LogLikelihood against zero.
	HasLL bool
	// Value is an algorithm-specific scalar trajectory statistic — for the
	// Gibbs bound approximation, the checkpoint's batch-mean conditional
	// error (the average over just this checkpoint's sweeps); for a quality
	// alarm trace, one observation of the offending window — with HasValue
	// marking it meaningful.
	Value float64
	// HasValue marks Value as meaningful.
	HasValue bool
	// Jump marks a fixed-point iteration whose input is not the map of the
	// previous iteration's input — an extrapolated point of an accelerated
	// EM fit, or its restart after a rejected one — so EM's monotone
	// log-likelihood ascent is not owed into it.
	Jump bool
	// Samples is the cumulative sample / pattern count for Monte Carlo and
	// enumeration loops; zero for fixed-point iterations.
	Samples int
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Done marks the run's final hook firing.
	Done bool
	// Stopped is the stop reason (Stop* constant), set only when Done.
	Stopped string
}

// Hook observes Iterations. Hooks run inline on the computing goroutine:
// they must be fast and must not block. A nil Hook is valid and fires
// nothing (see Emit).
type Hook func(Iteration)

// Emit fires the hook if it is non-nil, so call sites never branch.
func (h Hook) Emit(it Iteration) {
	if h != nil {
		h(it)
	}
}

// MultiHook composes hooks into a single hook that fires each non-nil
// sub-hook in argument order for every record — the fan-out that lets one
// run feed a metrics exporter and a trace recorder at once. Nil sub-hooks
// are skipped; zero non-nil sub-hooks compose to a nil Hook, and a single
// one is returned unwrapped.
//
// A panicking sub-hook does not starve the rest: the remaining hooks still
// fire, and the first recovered panic is re-raised afterwards on the
// computing goroutine, so an observer bug is reported, never swallowed.
func MultiHook(hooks ...Hook) Hook {
	live := make([]Hook, 0, len(hooks))
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(it Iteration) {
		var first any
		for _, h := range live {
			func() {
				defer func() {
					if r := recover(); r != nil && first == nil {
						first = r
					}
				}()
				h(it)
			}()
		}
		if first != nil {
			panic(first)
		}
	}
}

type hookKey struct{}

// WithHook returns a context carrying the hook. If the context already
// carries one, both fire (earliest first), so independent observers —
// a progress printer and a metrics exporter, say — compose without
// coordination.
func WithHook(ctx context.Context, h Hook) context.Context {
	if h == nil {
		return ctx
	}
	if prev := HookFrom(ctx); prev != nil {
		inner := h
		h = func(it Iteration) {
			prev(it)
			inner(it)
		}
	}
	return context.WithValue(ctx, hookKey{}, h)
}

// HookFrom extracts the context's hook, nil if none. Compute loops hoist
// this once before iterating rather than paying a context lookup per
// iteration.
func HookFrom(ctx context.Context) Hook {
	if ctx == nil {
		return nil
	}
	h, _ := ctx.Value(hookKey{}).(Hook)
	return h
}

// Err is a nil-tolerant ctx.Err(): it reports the context's cancellation
// error, or nil for a nil context. Compute loops call it at
// iteration/sweep/block boundaries.
func Err(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Reason maps a run-ending error to its Stop* constant: StopDeadline for
// context.DeadlineExceeded, StopCancelled for context.Canceled, and "" for
// anything else (including nil).
func Reason(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return StopDeadline
	case errors.Is(err, context.Canceled):
		return StopCancelled
	}
	return ""
}

// StopOf names the stop reason of a run that ended on its own: converged or
// iteration-cap.
func StopOf(converged bool) string {
	if converged {
		return StopConverged
	}
	return StopIterationCap
}
