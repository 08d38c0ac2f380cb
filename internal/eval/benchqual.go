package eval

import (
	"context"
	"fmt"
	"time"

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
// total minus the monitor's share. Bound tracking stays off: the bound is a
// separately budgeted, amortized evaluation, while the gate is about the
// per-refit verdict that rides every fit.
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

	var batchTime, monitorTime time.Duration
	ticks, alarms := 0, 0
	for run := 0; run < sz.qualReps; run++ {
		m := qual.NewMonitor(qual.Options{
			BoundEvery: -1,
			BoundSeed:  c.Seed,
			Workers:    c.Workers,
			Truth:      truth,
		})
		var obsErr error
		est := stream.New(stream.Options{
			EM: core.Options{Seed: c.Seed, Workers: c.Workers},
			OnRefit: func(ctx context.Context, ev stream.RefitEvent) {
				t0 := time.Now() //lint:allow seedsource wall-clock timing measurement: this benchmark's output IS monitor overhead
				_, err := m.ObserveRefit(ctx, qual.Refit{Result: ev.Result, Dataset: ev.Dataset, Edges: ev.Edges})
				monitorTime += time.Since(t0)
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
	}

	fit := batchTime - monitorTime
	var overhead, perTick float64
	if fit > 0 {
		overhead = monitorTime.Seconds() / fit.Seconds()
	}
	if ticks > 0 {
		perTick = monitorTime.Seconds() * 1e6 / float64(ticks)
	}
	rep.add("qual", "ticks", float64(ticks), "count")
	rep.add("qual", "fit", fit.Seconds()*1000, "ms")
	rep.add("qual", "monitor", monitorTime.Seconds()*1000, "ms")
	rep.add("qual", "monitor_per_tick", perTick, "us")
	rep.add("qual", "overhead", overhead, "ratio")
	// Detector firings over the clean seeded stream: cold-start settling,
	// informational, not gated.
	rep.add("qual", "alarms", float64(alarms), "count")
	return nil
}
