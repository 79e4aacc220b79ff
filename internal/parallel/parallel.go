// Package parallel is the bounded worker pool behind the repository's
// concurrent sweeps. Every experiment grid in this reproduction — the
// figure 2/3 client-count curves, the resource-management slack
// series, the hybrid model's per-architecture pseudo-data generation —
// is a set of independent cells: each cell owns its own sim.Engine and
// seeded random streams, so cells can run on any number of workers and
// still produce bit-identical results per (arch, clients, seed) key.
// This package provides the fan-out primitives those sweeps share:
//
//   - Map runs an indexed function across a bounded pool and returns
//     results in index order, with context cancellation and
//     deterministic first-error propagation.
//   - Memo and Once (memo.go) are the singleflight-style memoisation
//     used to make shared calibration state safe for concurrent use.
//
// With workers == 1 every helper degenerates to a plain serial loop on
// the calling goroutine — the exact pre-parallel behaviour, which the
// determinism tests pin against the pooled path.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// resolveWorkers normalises a worker-count knob: values <= 0 select
// runtime.GOMAXPROCS(0), anything else passes through. Sweeps expose
// the raw knob (0 = all cores, 1 = serial) and call this at the point
// of use.
func resolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines and returns the n results in index order. workers <= 0
// selects runtime.GOMAXPROCS(0); the pool never exceeds n.
//
// With one worker, fn runs inline on the calling goroutine in
// ascending index order and Map returns at the first error without
// touching later indices — exactly a serial loop. With more workers,
// indices are handed out in ascending order; on the first error the
// context passed to still-running fns is cancelled, the pool drains,
// and the error reported is the lowest-indexed real failure (context
// cancellations caused by that failure are not mistaken for it), so
// the returned error does not depend on goroutine scheduling.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	workers = resolveWorkers(workers)
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := cctx.Err(); err != nil {
					errs[i] = err
					return
				}
				v, err := fn(cctx, i)
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()

	// Deterministic first-error selection: prefer the lowest-indexed
	// error that is not a knock-on cancellation; fall back to the
	// lowest-indexed error of any kind (the parent context being
	// cancelled, typically).
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if fallback == nil {
			fallback = err
		}
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if fallback != nil {
		return nil, fallback
	}
	return out, nil
}
