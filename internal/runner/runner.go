// Package runner fans independent experiment trials across CPUs while
// keeping every result bit-identical to a serial run.
//
// The experiment drivers (Table 1, the ablation sweeps, the §8 defense
// survey) are grids of fully independent cells: each (board ×
// temperature × trial) cell builds its own sim.Env and board.Board from
// a seed, runs a power-event scenario, and reduces to a row. Nothing is
// shared between cells, so the grid is embarrassingly parallel — as long
// as three invariants hold, which this package owns:
//
//  1. *Private worlds.* The trial function must construct every mutable
//     object (env, board, rng) inside the call; the runner never shares
//     state between trials and the race detector enforces the rule.
//  2. *Seed discipline.* Per-trial randomness is derived from the parent
//     seed and the trial index (SeedFor, via xrand.Derive), never from a
//     shared stream, so results cannot depend on which worker ran first.
//  3. *Deterministic assembly.* Results are written into their index
//     slot and errors are reported by lowest index, so output ordering
//     and error selection are independent of goroutine scheduling.
//
// Under those rules Map(n, f) with any worker count — including 1 —
// produces byte-identical results, which TestMapMatchesSerial and the
// experiment-level golden tests assert.
package runner

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/xrand"
)

// SeedFor derives the seed of trial i of the experiment labelled label
// from the experiment's parent seed. The derivation is pure: it depends
// only on (seed, label, i), never on scheduling.
func SeedFor(seed uint64, label string, i int) uint64 {
	return xrand.Derive(seed, fmt.Sprintf("%s#%d", label, i)).Uint64()
}

// Map runs fn(i) for every i in [0, n) across min(GOMAXPROCS, n) workers
// and returns the results in index order. The first error by index (not
// by completion time) aborts the whole map. A panic in any trial is
// propagated to the caller.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), n, runtime.GOMAXPROCS(0), fn)
}

// MapCtx is Map with an explicit worker count and cooperative
// cancellation. workers ≤ 1 runs serially on the calling goroutine.
// Once ctx is cancelled no new trial is dispatched, in-flight trials
// finish, and the call returns (nil, ctx.Err()). Cancellation takes
// precedence over any trial error, because which trials had run by the
// time the context fired is scheduling-dependent — reporting ctx.Err()
// keeps the cancelled outcome deterministic. On the success path the
// results are index-ordered, the first error by index wins, and a trial
// panic is propagated. A Background (or otherwise non-cancellable)
// context adds no per-trial overhead: the cancellation probe is skipped
// entirely when ctx.Done() returns nil. MapCtx is MapWithResource with
// no resource.
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapWithResource(ctx, n, workers,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) (T, error) { return fn(i) })
}
