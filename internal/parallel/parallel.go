// Package parallel provides a minimal bounded worker pool for
// embarrassingly parallel experiment sweeps. Work items are indexed so
// callers can write results into pre-allocated slots and aggregate
// deterministically afterwards regardless of scheduling order.
//
// Blocks and BlockRange define the fixed block decomposition used by the
// deterministic hot paths (EM E/M steps, exact bound enumeration): the
// decomposition depends only on the problem size, never on the worker
// count, so per-block partials reduced in block index order yield results
// that are bit-for-bit identical at any parallelism level.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Blocks returns the number of fixed-size blocks covering n items. It is
// zero for n <= 0 and never depends on the worker count, which is what
// makes block-partial reductions scheduler-independent.
func Blocks(n, size int) int {
	if n <= 0 {
		return 0
	}
	if size <= 0 {
		size = 1
	}
	return (n + size - 1) / size
}

// BlockRange returns the half-open item range [lo, hi) of block b under the
// same decomposition as Blocks.
func BlockRange(b, n, size int) (lo, hi int) {
	lo = b * size
	hi = lo + size
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 selects GOMAXPROCS). It waits for all items to finish and
// returns the error of the lowest-indexed item that failed, if any. fn must
// be safe to call concurrently; writing to disjoint result slots is the
// intended aggregation pattern.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach under a context: once ctx is cancelled no further
// items are dispatched, though in-flight items run to completion. The
// lowest-indexed item error still wins when both an item failed and the
// context was cancelled; with no item failures the context's error is
// returned. fn does not receive ctx — callers that want per-item
// cancellation close over it.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return fmt.Errorf("parallel: item %d: %w", i, err)
			}
		}
		return nil
	}

	// One mutex guards both the dispatch cursor and the first-failure
	// record, so "stop dispatching after a failure" and "report the
	// lowest-indexed failure" cannot race with each other.
	var (
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
		next     int
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstIdx < 0 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
	}
	takeNext := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		// Stop dispatching after the first failure or cancellation;
		// in-flight items still run to completion.
		if next >= n || firstIdx >= 0 || ctx.Err() != nil {
			return 0, false
		}
		i := next
		next++
		return i, true
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Cancellation is consulted inside takeNext, the dispatch gate that ends this loop.
			for {
				i, ok := takeNext()
				if !ok {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("parallel: item %d: %w", firstIdx, firstErr)
	}
	if next < n {
		// Dispatch stopped early without an item failure: the context
		// was cancelled.
		return ctx.Err()
	}
	return nil
}
