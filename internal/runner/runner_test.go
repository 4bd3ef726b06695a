package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMapMatchesSerial is the package's core guarantee: for a pure trial
// function, MapCtx with any worker count returns exactly what the
// serial loop returns, in the same order.
func TestMapMatchesSerial(t *testing.T) {
	const n = 257
	fn := func(i int) (uint64, error) {
		// A cheap pure function of the index with enough mixing that an
		// ordering bug cannot cancel out.
		return SeedFor(42, "serial-vs-parallel", i), nil
	}
	want, err := MapCtx(context.Background(), n, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64, n + 5} {
		got, err := MapCtx(context.Background(), n, workers, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: len = %d, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %#x, want %#x", workers, i, got[i], want[i])
			}
		}
	}
}

// TestMapFirstErrorByIndex: when several trials fail, the reported error
// must be the one with the lowest index, no matter how goroutines are
// scheduled.
func TestMapFirstErrorByIndex(t *testing.T) {
	const n = 100
	failAt := map[int]bool{17: true, 18: true, 63: true, 99: true}
	for _, workers := range []int{1, 2, 8} {
		_, err := MapCtx(context.Background(), n, workers, func(i int) (int, error) {
			if failAt[i] {
				return 0, fmt.Errorf("boom at %d", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if got, want := err.Error(), "runner: trial 17: boom at 17"; got != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, got, want)
		}
	}
}

// TestMapErrorWrapped: the trial error must be reachable via errors.Is.
func TestMapErrorWrapped(t *testing.T) {
	sentinel := errors.New("sentinel")
	_, err := MapCtx(context.Background(), 10, 4, func(i int) (int, error) {
		if i == 5 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is(err, sentinel) = false; err = %v", err)
	}
}

// TestMapPanicPropagates: a panicking trial must crash the caller, not a
// bare worker goroutine.
func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: expected panic", workers)
				}
				if s, ok := r.(string); !ok || s != "trial panic" {
					t.Fatalf("workers=%d: recovered %v, want \"trial panic\"", workers, r)
				}
			}()
			_, _ = MapCtx(context.Background(), 20, workers, func(i int) (int, error) {
				if i == 7 {
					panic("trial panic")
				}
				return i, nil
			})
		}()
	}
}

// TestMapEmptyAndSmall: degenerate sizes.
func TestMapEmptyAndSmall(t *testing.T) {
	out, err := Map(0, func(i int) (int, error) { return i, nil })
	if err != nil || out != nil {
		t.Fatalf("Map(0) = %v, %v; want nil, nil", out, err)
	}
	out, err = MapCtx(context.Background(), 1, 8, func(i int) (int, error) { return i + 100, nil })
	if err != nil || len(out) != 1 || out[0] != 100 {
		t.Fatalf("MapCtx(context.Background(), 1, 8) = %v, %v", out, err)
	}
}

// TestMapRunsEveryIndexOnce: every index executes exactly once on the
// success path.
func TestMapRunsEveryIndexOnce(t *testing.T) {
	const n = 500
	var counts [n]atomic.Int32
	_, err := MapCtx(context.Background(), n, 8, func(i int) (struct{}, error) {
		counts[i].Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestMapCtxMatchesMap: with a background context, MapCtx is the same
// function as Map — same results, same ordering, any worker count.
func TestMapCtxMatchesMap(t *testing.T) {
	const n = 123
	fn := func(i int) (uint64, error) { return SeedFor(7, "ctx-vs-plain", i), nil }
	want, err := Map(n, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		got, err := MapCtx(context.Background(), n, workers, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %#x, want %#x", workers, i, got[i], want[i])
			}
		}
	}
}

// TestMapCtxAlreadyCancelled: a context that is dead on arrival runs
// nothing and returns ctx.Err().
func TestMapCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	for _, workers := range []int{1, 8} {
		out, err := MapCtx(ctx, 50, workers, func(i int) (int, error) {
			calls.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if out != nil {
			t.Fatalf("workers=%d: out = %v, want nil", workers, out)
		}
	}
	if c := calls.Load(); c != 0 {
		t.Fatalf("trial fn ran %d times on a dead context", c)
	}
}

// TestMapCtxStopsDispatching: cancelling mid-run stops new trials from
// being dispatched, lets the in-flight ones finish, and reports ctx.Err()
// — even though some trials completed successfully.
func TestMapCtxStopsDispatching(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var after atomic.Int32
		release := make(chan struct{})
		var once sync.Once
		_, err := MapCtx(ctx, 1000, workers, func(i int) (int, error) {
			once.Do(func() {
				cancel()
				close(release) // no trial past this point may start
			})
			<-release
			after.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Only trials already dispatched when cancel fired may have run:
		// at most one per worker.
		if got := int(after.Load()); got > workers {
			t.Fatalf("workers=%d: %d trials ran after cancellation", workers, got)
		}
	}
}

// TestMapCtxCancellationBeatsTrialError: when the context dies during the
// run, ctx.Err() is reported even if a trial also failed — the set of
// completed trials under cancellation is scheduling-dependent, so the
// trial error would be nondeterministic.
func TestMapCtxCancellationBeatsTrialError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	_, err := MapCtx(ctx, 100, 4, func(i int) (int, error) {
		if i == 0 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSeedForDeterministicAndDistinct: per-trial seeds are a pure
// function of (seed, label, index) and do not collide across nearby
// indices or labels.
func TestSeedForDeterministic(t *testing.T) {
	seen := map[uint64]string{}
	for _, label := range []string{"table1", "retention", "defenses"} {
		for i := 0; i < 64; i++ {
			s1 := SeedFor(0x5EED, label, i)
			s2 := SeedFor(0x5EED, label, i)
			if s1 != s2 {
				t.Fatalf("SeedFor not deterministic: %#x vs %#x", s1, s2)
			}
			key := fmt.Sprintf("%s#%d", label, i)
			if prev, dup := seen[s1]; dup {
				t.Fatalf("seed collision: %s and %s both map to %#x", prev, key, s1)
			}
			seen[s1] = key
		}
	}
	if SeedFor(1, "x", 0) == SeedFor(2, "x", 0) {
		t.Fatal("SeedFor ignores parent seed")
	}
}
