package eval

import (
	"context"
	"fmt"
	"math"
	"time"

	"depsense/internal/bound"
	"depsense/internal/core"
	"depsense/internal/qual"
	"depsense/internal/randutil"
	"depsense/internal/stream"
	"depsense/internal/twittersim"
)

// qualBatch is the claim batch size per refit of the quality layer.
const qualBatch = 64

// benchQual measures what the estimation-quality monitor costs relative to
// the refits it observes: a seeded Ukraine stream is replayed through
// stream.Estimator with a qual.Monitor on OnRefit, every ObserveRefit is
// timed separately from the batch it rides, and the rows relate the two.
// The monitor runs synchronously inside AddBatch, so fit time is the batch
// total minus the monitor's share. The fit, monitor and overhead rows come
// from the replay with the smallest overhead: one scheduler stall inside a
// sub-millisecond ObserveRefit would otherwise dominate a pooled ratio.
// Bound tracking stays off: the bound is a separately budgeted, amortized
// evaluation, while the gate is about the per-refit verdict that rides
// every fit.
func benchQual(c Config, sz benchSizes, rep *BenchReport) error {
	w, err := twittersim.Generate(twittersim.Small("Ukraine", sz.qualScale), randutil.New(c.Seed))
	if err != nil {
		return fmt.Errorf("eval: bench qual scenario: %w", err)
	}
	kinds := w.Kinds
	truth := func(j int) (bool, bool) {
		if j < 0 || j >= len(kinds) || kinds[j] == twittersim.KindOpinion {
			return false, false
		}
		return kinds[j] == twittersim.KindTrue, true
	}
	events := w.Events()

	// best is the replay with the smallest monitor/fit ratio.
	var best struct {
		fit, monitor time.Duration
		ticks        int
	}
	ticks, alarms := 0, 0
	var last stream.RefitEvent
	for run := 0; run < sz.qualReps; run++ {
		var batchTime, monitorTime time.Duration
		m := qual.NewMonitor(qual.Options{
			BoundEvery: -1,
			Truth:      truth,
		})
		var obsErr error
		est := stream.New(stream.Options{
			EM: core.Options{Workers: c.Workers},
			OnRefit: func(ctx context.Context, ev stream.RefitEvent) {
				t0 := time.Now() //lint:allow seedsource wall-clock timing measurement: this benchmark's output IS monitor overhead
				_, err := m.ObserveRefit(ctx, qual.Refit{Result: ev.Result, Dataset: ev.Dataset, Edges: ev.Edges})
				monitorTime += time.Since(t0)
				last = ev
				if err != nil && obsErr == nil {
					obsErr = err
				}
			},
		})
		for at := 0; at < len(events); at += qualBatch {
			end := min(at+qualBatch, len(events))
			for _, tw := range w.Tweets[at:end] {
				if tw.RetweetOf >= 0 {
					orig := w.Tweets[tw.RetweetOf]
					if orig.Source != tw.Source {
						if err := est.ObserveFollow(tw.Source, orig.Source); err != nil {
							return fmt.Errorf("eval: bench qual follow: %w", err)
						}
					}
				}
			}
			t0 := time.Now() //lint:allow seedsource wall-clock timing measurement: this benchmark's output IS monitor overhead
			if _, err := est.AddBatch(events[at:end]); err != nil {
				return fmt.Errorf("eval: bench qual batch at %d: %w", at, err)
			}
			batchTime += time.Since(t0)
		}
		if obsErr != nil {
			return fmt.Errorf("eval: bench qual observe: %w", obsErr)
		}
		ticks += m.Ticks()
		alarms += len(m.Alarms())
		// monitor/fit < best.monitor/best.fit, cross-multiplied so a zero
		// fit never divides.
		fit := batchTime - monitorTime
		if run == 0 || float64(monitorTime)*float64(best.fit) < float64(best.monitor)*float64(fit) {
			best.fit, best.monitor, best.ticks = fit, monitorTime, m.Ticks()
		}
	}

	var overhead, perTick float64
	if best.fit > 0 {
		overhead = best.monitor.Seconds() / best.fit.Seconds()
	}
	if best.ticks > 0 {
		perTick = best.monitor.Seconds() * 1e6 / float64(best.ticks)
	}
	rep.add("qual", "ticks", float64(ticks), "count")
	rep.add("qual", "fit", best.fit.Seconds()*1000, "ms")
	rep.add("qual", "monitor", best.monitor.Seconds()*1000, "ms")
	rep.add("qual", "monitor_per_tick", perTick, "us")
	rep.add("qual", "overhead", overhead, "ratio")
	// Detector firings over the clean seeded stream: cold-start settling,
	// informational, not gated.
	rep.add("qual", "alarms", float64(alarms), "count")
	return benchBound(c, sz, last, rep)
}

// benchBound times the bound the quality monitor evaluates every
// BoundEvery refits (qual.ErrorBound) on the stream's final fitted
// dataset, keeping the fastest of qualReps evaluations. Report-only: its
// cost grows with the distinct dependency columns, recorded beside it.
func benchBound(c Config, sz benchSizes, last stream.RefitEvent, rep *BenchReport) error {
	if last.Result == nil || last.Result.Params == nil {
		return fmt.Errorf("eval: bench bound: no fitted refit to evaluate")
	}
	best := time.Duration(math.MaxInt64)
	for run := 0; run < sz.qualReps; run++ {
		t0 := time.Now() //lint:allow seedsource wall-clock timing measurement: this benchmark's output IS bound evaluation time
		if _, err := qual.ErrorBound(c.Ctx, last.Dataset, last.Result.Params); err != nil {
			return fmt.Errorf("eval: bench bound: %w", err)
		}
		best = min(best, time.Since(t0))
	}
	rep.add("bound", "eval", best.Seconds()*1000, "ms")
	rep.add("bound", "columns", float64(bound.DistinctColumns(last.Dataset)), "count")
	return nil
}
