package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/registry"
)

// testRegistry builds a registry of instant, controllable experiments:
//
//   - "echo": returns a pure function of (seed, params); counts runs.
//   - "gate": blocks until the returned release func is called or its
//     context is cancelled — the knob every cancellation/backpressure
//     test needs.
//   - "fail": always returns the same error.
func testRegistry() (*registry.Registry, *atomic.Int64, func()) {
	var echoRuns atomic.Int64
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	reg := registry.New(
		&registry.Experiment{
			Name: "echo", Doc: "test echo", ArtifactKinds: []string{"text"},
			Params: []registry.ParamSpec{{
				Name: "temps", Kind: registry.FloatListKind, Default: "25,0",
			}},
			Run: func(_ context.Context, req registry.Request) (*registry.Result, error) {
				echoRuns.Add(1)
				return &registry.Result{
					Text:      fmt.Sprintf("echo seed=%d temps=%s\n", req.Seed, req.Params["temps"]),
					Artifacts: []registry.Artifact{{Name: "echo.bin", Data: []byte{1, 2, 3}}},
				}, nil
			},
		},
		&registry.Experiment{
			Name: "gate", Doc: "blocks until released", ArtifactKinds: []string{"text"},
			Run: func(ctx context.Context, req registry.Request) (*registry.Result, error) {
				select {
				case <-gate:
					return &registry.Result{Text: "opened\n"}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		},
		&registry.Experiment{
			Name: "fail", Doc: "always fails", ArtifactKinds: []string{"text"},
			Run: func(context.Context, registry.Request) (*registry.Result, error) {
				return nil, errors.New("deterministic boom")
			},
		},
	)
	return reg, &echoRuns, release
}

// waitState polls until the job reaches a state for which ok returns
// true, or times out.
func waitState(t *testing.T, m *Manager, id string, ok func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func terminal(st JobStatus) bool { return st.State.Terminal() }

func TestJobLifecycle(t *testing.T) {
	reg, _, _ := testRegistry()
	m := New(Config{Registry: reg, Workers: 2, QueueDepth: 8})
	defer m.Drain(context.Background())

	st, err := m.Submit(Spec{Runs: []RunSpec{
		{Experiment: "echo", Seed: 7},
		{Experiment: "echo", Seed: 8, Params: map[string]string{"temps": "1,2,3"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Progress.Total != 2 {
		t.Fatalf("total = %d, want 2", st.Progress.Total)
	}

	final := waitState(t, m, st.ID, terminal)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if final.Progress.Done != 2 {
		t.Fatalf("done = %d, want 2", final.Progress.Done)
	}
	if final.Cached {
		t.Fatal("first-ever job reported cached")
	}

	rb, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Cached {
		t.Fatal("first-ever result reported cached")
	}
	if rb.Tier != TierMiss {
		t.Fatalf("first-ever result tier = %s, want miss", rb.Tier)
	}
	if rb.ETag == "" || rb.ETag[0] != '"' {
		t.Fatalf("missing strong ETag: %q", rb.ETag)
	}
	for _, want := range []string{"echo seed=7 temps=25,0", "echo seed=8 temps=1,2,3", "echo.bin"} {
		if !bytes.Contains(rb.Body, []byte(want)) {
			t.Errorf("result body missing %q:\n%s", want, rb.Body)
		}
	}

	// The event history replays the full lifecycle in order.
	evs, _, term, err := m.EventsSince(st.ID, 0)
	if err != nil || !term {
		t.Fatalf("EventsSince: evs=%d term=%v err=%v", len(evs), term, err)
	}
	if evs[0].State != StateQueued || evs[len(evs)-1].State != StateDone {
		t.Fatalf("event history does not run queued→done: %+v", evs)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestCacheHitByteIdentical is the cache contract: an identical second
// submission is served from the cache (cached:true, no re-simulation)
// with a byte-identical result body.
func TestCacheHitByteIdentical(t *testing.T) {
	reg, echoRuns, _ := testRegistry()
	m := New(Config{Registry: reg, Workers: 2, QueueDepth: 8})
	defer m.Drain(context.Background())

	spec := Spec{Runs: []RunSpec{{Experiment: "echo", Seed: 42}}}
	st1, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st1.ID, terminal)
	rb1, err := m.Result(st1.ID)
	if err != nil || rb1.Cached {
		t.Fatalf("first result: cached=%v err=%v", rb1.Cached, err)
	}

	// Same campaign, spelled with the default made explicit: must hit.
	st2, err := m.Submit(Spec{Runs: []RunSpec{
		{Experiment: "echo", Seed: 42, Params: map[string]string{"temps": "25.0, 0"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitState(t, m, st2.ID, terminal)
	if !final2.Cached {
		t.Fatal("second submission not marked cached")
	}
	if final2.Progress.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", final2.Progress.CacheHits)
	}
	rb2, err := m.Result(st2.ID)
	if err != nil || !rb2.Cached {
		t.Fatalf("second result: cached=%v err=%v", rb2.Cached, err)
	}
	if rb2.Tier != TierMem {
		t.Fatalf("second result tier = %s, want hit-mem", rb2.Tier)
	}
	if !bytes.Equal(rb1.Body, rb2.Body) {
		t.Fatalf("cached result body differs:\n%s\nvs\n%s", rb1.Body, rb2.Body)
	}
	if rb1.ETag != rb2.ETag {
		t.Fatalf("ETag differs across identical bodies: %s vs %s", rb1.ETag, rb2.ETag)
	}
	if n := echoRuns.Load(); n != 1 {
		t.Fatalf("echo simulated %d times, want 1", n)
	}

	// A different seed is a different address: must miss.
	st3, err := m.Submit(Spec{Runs: []RunSpec{{Experiment: "echo", Seed: 43}}})
	if err != nil {
		t.Fatal(err)
	}
	if final3 := waitState(t, m, st3.ID, terminal); final3.Cached {
		t.Fatal("different seed reported cached")
	}
}

// TestCancelFreesWorker: DELETE mid-run releases the only worker, which
// then serves the next job.
func TestCancelFreesWorker(t *testing.T) {
	reg, _, release := testRegistry()
	m := New(Config{Registry: reg, Workers: 1, QueueDepth: 8})
	defer func() { release(); m.Drain(context.Background()) }()

	blocked, err := m.Submit(Spec{Runs: []RunSpec{{Experiment: "gate", Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocked.ID, func(st JobStatus) bool { return st.State == StateRunning })

	if _, err := m.Cancel(blocked.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, blocked.ID, terminal)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if _, err := m.Result(blocked.ID); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("Result of cancelled job: err = %v, want ErrNotFinished", err)
	}

	// The single worker must now be free: an instant job completes.
	next, err := m.Submit(Spec{Runs: []RunSpec{{Experiment: "echo", Seed: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitState(t, m, next.ID, terminal); final.State != StateDone {
		t.Fatalf("post-cancel job state = %s, want done", final.State)
	}
}

// TestCancelQueuedJob: cancelling before a worker picks the job up
// finalizes it immediately and the worker skips it.
func TestCancelQueuedJob(t *testing.T) {
	reg, echoRuns, release := testRegistry()
	m := New(Config{Registry: reg, Workers: 1, QueueDepth: 8})
	defer m.Drain(context.Background())

	blocker, err := m.Submit(Spec{Runs: []RunSpec{{Experiment: "gate", Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, func(st JobStatus) bool { return st.State == StateRunning })

	queued, err := m.Submit(Spec{Runs: []RunSpec{{Experiment: "echo", Seed: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s, want cancelled", st.State)
	}

	release()
	waitState(t, m, blocker.ID, terminal)
	if n := echoRuns.Load(); n != 0 {
		t.Fatalf("cancelled queued job still simulated (%d runs)", n)
	}
}

// TestQueueOverflow: Workers + QueueDepth jobs saturate the pool; the
// next submission fails fast with ErrQueueFull and is not registered.
func TestQueueOverflow(t *testing.T) {
	reg, _, release := testRegistry()
	m := New(Config{Registry: reg, Workers: 1, QueueDepth: 2})
	defer func() { release(); m.Drain(context.Background()) }()

	gateSpec := Spec{Runs: []RunSpec{{Experiment: "gate", Seed: 1}}}
	running, err := m.Submit(gateSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, func(st JobStatus) bool { return st.State == StateRunning })
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(gateSpec); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	if _, err := m.Submit(gateSpec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	if n := len(m.List()); n != 3 {
		t.Fatalf("job table has %d entries after rejection, want 3", n)
	}

	release()
	for _, st := range m.List() {
		waitState(t, m, st.ID, terminal)
	}
}

// TestConcurrentIdenticalSubmissions is the coalescing contract, run
// under -race in CI: 8 concurrent clients submitting the same campaign
// all get byte-identical bodies, exactly one execution happens, and at
// least 7 are served from the cache.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	reg, echoRuns, _ := testRegistry()
	m := New(Config{Registry: reg, Workers: 4, QueueDepth: 32})
	defer m.Drain(context.Background())

	const clients = 8
	spec := Spec{Runs: []RunSpec{
		{Experiment: "echo", Seed: 777},
		{Experiment: "echo", Seed: 778},
	}}
	var wg sync.WaitGroup
	ids := make([]string, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st, err := m.Submit(spec)
			ids[c], errs[c] = st.ID, err
		}(c)
	}
	wg.Wait()

	var bodies [][]byte
	cachedCount := 0
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		final := waitState(t, m, ids[c], terminal)
		if final.State != StateDone {
			t.Fatalf("client %d: state %s (%s)", c, final.State, final.Error)
		}
		rb, err := m.Result(ids[c])
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, rb.Body)
		if final.Cached {
			cachedCount++
		}
	}
	for c := 1; c < clients; c++ {
		if !bytes.Equal(bodies[0], bodies[c]) {
			t.Fatalf("client %d body differs from client 0", c)
		}
	}
	if cachedCount < clients-1 {
		t.Fatalf("%d/%d served from cache, want ≥ %d", cachedCount, clients, clients-1)
	}
	if n := echoRuns.Load(); n != 2 {
		t.Fatalf("echo simulated %d times for %d clients × 2 runs, want 2", n, clients)
	}
}

// TestFailedRunCachesDeterministically: a failing run fails the job, and
// the failure itself is content-addressed — a second identical submission
// fails from the cache without re-running.
func TestFailedRun(t *testing.T) {
	reg, _, _ := testRegistry()
	m := New(Config{Registry: reg, Workers: 1, QueueDepth: 8})
	defer m.Drain(context.Background())

	spec := Spec{Runs: []RunSpec{{Experiment: "fail", Seed: 1}}}
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, terminal)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if _, err := m.Result(st.ID); err == nil {
		t.Fatal("Result of failed job returned no error")
	}

	st2, _ := m.Submit(spec)
	final2 := waitState(t, m, st2.ID, terminal)
	if final2.State != StateFailed {
		t.Fatalf("second state = %s, want failed", final2.State)
	}
	if len(final2.Runs) != 1 || !final2.Runs[0].Cached {
		t.Fatal("second failure was not served from the cache")
	}
}

// TestSubmitValidation: unknown experiments and malformed params are
// rejected at submission time, before anything queues.
func TestSubmitValidation(t *testing.T) {
	reg, _, _ := testRegistry()
	m := New(Config{Registry: reg, Workers: 1, QueueDepth: 8})
	defer m.Drain(context.Background())

	for _, spec := range []Spec{
		{},
		{Runs: []RunSpec{{Experiment: "nonesuch", Seed: 1}}},
		{Runs: []RunSpec{{Experiment: "echo", Seed: 1, Params: map[string]string{"bogus": "1"}}}},
		{Runs: []RunSpec{{Experiment: "echo", Seed: 1, Params: map[string]string{"temps": "warm"}}}},
	} {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) succeeded, want error", spec)
		}
	}
	if n := len(m.List()); n != 0 {
		t.Fatalf("rejected submissions left %d jobs in the table", n)
	}
}

// TestDrain: draining finishes queued work, then refuses new intake.
func TestDrain(t *testing.T) {
	reg, _, _ := testRegistry()
	m := New(Config{Registry: reg, Workers: 2, QueueDepth: 8})

	var ids []string
	for i := 0; i < 5; i++ {
		st, err := m.Submit(Spec{Runs: []RunSpec{{Experiment: "echo", Seed: uint64(i)}}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s drained in state %s, want done", id, st.State)
		}
	}
	if _, err := m.Submit(Spec{Runs: []RunSpec{{Experiment: "echo", Seed: 1}}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: err = %v, want ErrDraining", err)
	}
}

// TestCacheKeyShape: the key is a pure function of its triple and
// sensitive to each field.
func TestCacheKeyShape(t *testing.T) {
	base := CacheKey("table1", 1, "a=1\n")
	if len(base) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(base))
	}
	if CacheKey("table1", 1, "a=1\n") != base {
		t.Fatal("CacheKey not deterministic")
	}
	for _, other := range []string{
		CacheKey("table2", 1, "a=1\n"),
		CacheKey("table1", 2, "a=1\n"),
		CacheKey("table1", 1, "a=2\n"),
	} {
		if other == base {
			t.Fatal("CacheKey collision across distinct triples")
		}
	}
}

// TestJobRetention: finished jobs beyond the cap are forgotten — status,
// result and List stop serving them — while newer jobs and the result
// cache stay intact.
func TestJobRetention(t *testing.T) {
	reg, _, _ := testRegistry()
	m := New(Config{Registry: reg, Workers: 1, QueueDepth: 8, JobRetention: 3})
	defer m.Drain(context.Background())

	var ids []string
	for seed := uint64(1); seed <= 5; seed++ {
		st, err := m.Submit(Spec{Runs: []RunSpec{{Experiment: "echo", Seed: seed}}})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, st.ID, terminal)
		ids = append(ids, st.ID)
	}

	// 5 finished with cap 3: the two oldest are gone.
	for _, id := range ids[:2] {
		if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s): err = %v, want ErrNotFound", id, err)
		}
		if _, err := m.Result(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Result(%s): err = %v, want ErrNotFound", id, err)
		}
	}
	for _, id := range ids[2:] {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s state = %s, want done", id, st.State)
		}
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("List() returned %d jobs, want 3", len(list))
	}
	for i, st := range list {
		if st.ID != ids[2+i] {
			t.Fatalf("List()[%d] = %s, want %s (submission order, evictions skipped)", i, st.ID, ids[2+i])
		}
	}

	// The forgotten jobs' results still live in the cache tier: a fresh
	// identical submission is served as a memory hit.
	st, err := m.Submit(Spec{Runs: []RunSpec{{Experiment: "echo", Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, terminal)
	if !final.Cached || final.CacheTier != TierMem {
		t.Fatalf("resubmit after eviction: cached=%v tier=%s, want mem hit", final.Cached, final.CacheTier)
	}
}

// TestRunTimeoutFailsDistinctlyAndIsNotCached pins the per-run
// wall-clock budget: a run that blows Config.RunTimeout fails its job
// with the distinct ErrRunTimeout reason (not a cancellation), and the
// timed-out key is not cached in any tier — unlike deterministic run
// failures, a timeout depends on the node's clock, so a resubmission
// must actually recompute (and may succeed).
func TestRunTimeoutFailsDistinctlyAndIsNotCached(t *testing.T) {
	var instant atomic.Bool
	var runs atomic.Int64
	reg := registry.New(&registry.Experiment{
		Name: "slow", Doc: "blocks until its context fires, unless flipped fast",
		ArtifactKinds: []string{"text"},
		Run: func(ctx context.Context, _ registry.Request) (*registry.Result, error) {
			runs.Add(1)
			if instant.Load() {
				return &registry.Result{Text: "fast\n"}, nil
			}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	m := New(Config{Registry: reg, Workers: 1, QueueDepth: 8, RunTimeout: 30 * time.Millisecond})
	defer m.Drain(context.Background())

	spec := Spec{Runs: []RunSpec{{Experiment: "slow", Seed: 1}}}
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, terminal)
	if final.State != StateFailed {
		t.Fatalf("state = %s (%s), want failed", final.State, final.Error)
	}
	if !strings.Contains(final.Error, ErrRunTimeout.Error()) {
		t.Fatalf("job error %q does not carry the timeout reason", final.Error)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("experiment ran %d times, want 1", got)
	}

	// Same spec, now fast: must recompute (no poisoned cache) and pass.
	instant.Store(true)
	st2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitState(t, m, st2.ID, terminal)
	if final2.State != StateDone {
		t.Fatalf("resubmission state = %s (%s), want done", final2.State, final2.Error)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("experiment ran %d times total, want 2 (timeout must not be cached)", got)
	}
	if final2.Cached {
		t.Fatal("resubmission reported cached; the timed-out key leaked into a cache tier")
	}
}

// TestRunTimeoutOffByDefault: without RunTimeout the same blocking run
// is bounded only by its caller.
func TestRunTimeoutOffByDefault(t *testing.T) {
	reg, _, release := testRegistry()
	m := New(Config{Registry: reg, Workers: 1, QueueDepth: 8})
	defer m.Drain(context.Background())

	st, err := m.Submit(Spec{Runs: []RunSpec{{Experiment: "gate", Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	// Longer than any default anyone might accidentally introduce being
	// measured in milliseconds; the gate holds the run open across it.
	time.Sleep(50 * time.Millisecond)
	if got, _ := m.Get(st.ID); got.State != StateRunning {
		t.Fatalf("state = %s, want still running with no timeout configured", got.State)
	}
	release()
	if final := waitState(t, m, st.ID, terminal); final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
}

// TestManagerServesAfterOutOfRangeJob: over the real catalog, a float
// parameter the physics cannot take never takes the service down. A
// non-finite value fails Submit before a job exists; an out-of-range
// finite one (a temperature below absolute zero) fails its job, and the
// manager then serves the next job as usual.
func TestManagerServesAfterOutOfRangeJob(t *testing.T) {
	m := New(Config{Registry: registry.Default(), Workers: 1, QueueDepth: 4})
	defer m.Drain(context.Background())

	if _, err := m.Submit(Spec{Runs: []RunSpec{{
		Experiment: "ablationB-retention-sweep", Seed: 1, Params: map[string]string{"temps": "NaN"},
	}}}); err == nil {
		t.Fatal("Submit with temps=NaN succeeded, want a validation error")
	}

	bad, err := m.Submit(Spec{Runs: []RunSpec{{
		Experiment: "ablationB-retention-sweep", Seed: 1, Params: map[string]string{"temps": "-300"},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, m, bad.ID, terminal); st.State != StateFailed || !strings.Contains(st.Error, "absolute zero") {
		t.Fatalf("temps=-300 job ended %s (%q), want failed on the range check", st.State, st.Error)
	}

	good, err := m.Submit(Spec{Runs: []RunSpec{{Experiment: "table2", Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, m, good.ID, terminal); st.State != StateDone {
		t.Fatalf("the next job ended %s (%q), want done", st.State, st.Error)
	}
}
