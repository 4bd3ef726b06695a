package runner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// MapWithResource is the package's one worker pool: MapCtx, with the
// same cancellation, error and panic rules, for trial functions that
// share an expensive per-worker resource — the snapshot fast path's
// entry point. Each worker lazily builds one resource with mk on its
// first claimed trial and reuses it for every subsequent trial it runs;
// with workers ≤ 1 a single resource serves the whole serial loop.
//
// The canonical resource is a forked board: mk builds a fresh
// board.Board, runs the sweep's shared prefix (boot, victim fill), and
// captures a snapshot; fn restores the snapshot and runs only the
// per-trial tail. Worker count then scales throughput without repaying
// the prefix per trial.
//
// Determinism adds a fourth invariant to the package rules: *resource
// interchangeability*. mk must build identical resources every call
// (same seeds, same prefix), and fn(r, i) must depend only on i and the
// resource's captured state — never on which trials previously ran on r.
// Snapshot restores provide exactly that: every trial starts from the
// bit-identical capture point, so results match a serial run with any
// worker count. A mk error is reported at the worker's first claimed
// trial index; because mk is deterministic, every worker fails the same
// way and the lowest-index rule still yields a stable error.
func MapWithResource[R, T any](ctx context.Context, n, workers int, mk func() (R, error), fn func(r R, i int) (T, error)) ([]T, error) {
	done := ctx.Done()
	if done != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var (
			r    R
			made bool
		)
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return nil, ctx.Err()
				default:
				}
			}
			if !made {
				var err error
				if r, err = mk(); err != nil {
					return nil, fmt.Errorf("runner: trial %d: resource: %w", i, err)
				}
				made = true
			}
			v, err := fn(r, i)
			if err != nil {
				return nil, fmt.Errorf("runner: trial %d: %w", i, err)
			}
			results[i] = v
		}
		return results, nil
	}

	var (
		next     atomic.Int64
		firstIdx atomic.Int64
		errs     = make([]error, n)
		panics   = make([]any, workers)
		wg       sync.WaitGroup
	)
	firstIdx.Store(-1)
	record := func(i int, err error) {
		errs[i] = err
		for {
			f := firstIdx.Load()
			if f == -2 || (f >= 0 && f < int64(i)) {
				return
			}
			if firstIdx.CompareAndSwap(f, int64(i)) {
				return
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[worker] = r
					firstIdx.Store(-2)
				}
			}()
			var (
				r    R
				made bool
			)
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if f := firstIdx.Load(); f == -2 || (f >= 0 && int64(i) > f) {
					continue
				}
				if !made {
					var err error
					if r, err = mk(); err != nil {
						record(i, fmt.Errorf("resource: %w", err))
						return // a worker without a resource cannot serve trials
					}
					made = true
				}
				v, err := fn(r, i)
				if err != nil {
					record(i, err)
					continue
				}
				results[i] = v
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	if done != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if f := firstIdx.Load(); f >= 0 {
		return nil, fmt.Errorf("runner: trial %d: %w", f, errs[f])
	}
	return results, nil
}
