package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/registry"
)

// testRegistry returns a registry of three experiments:
//
//   - "echo" returns a pure function of its seed and counts its runs;
//   - "fail" always fails the same way;
//   - "gate" blocks until release is called or its context fires, the
//     knob the drain and cancel tests need.
func testRegistry() (*registry.Registry, *atomic.Int64, func()) {
	var echoRuns atomic.Int64
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	reg := registry.New(
		&registry.Experiment{
			Name: "echo", Doc: "echoes its seed", ArtifactKinds: []string{"text"},
			Run: func(_ context.Context, req registry.Request) (*registry.Result, error) {
				echoRuns.Add(1)
				return &registry.Result{Text: fmt.Sprintf("echo seed=%d\n", req.Seed)}, nil
			},
		},
		&registry.Experiment{
			Name: "fail", Doc: "always fails", ArtifactKinds: []string{"text"},
			Run: func(context.Context, registry.Request) (*registry.Result, error) {
				return nil, errors.New("deterministic boom")
			},
		},
		&registry.Experiment{
			Name: "gate", Doc: "blocks until released", ArtifactKinds: []string{"text"},
			Run: func(ctx context.Context, _ registry.Request) (*registry.Result, error) {
				select {
				case <-gate:
					return &registry.Result{Text: "opened\n"}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		},
	)
	return reg, &echoRuns, release
}

// fleetOfOne returns a manager whose jobs run through a one-member
// fabric node.
func fleetOfOne(t *testing.T, reg *registry.Registry) *campaign.Manager {
	t.Helper()
	node, err := New(Config{Self: "solo", Fingerprint: reg.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	mgr := campaign.New(campaign.Config{Registry: reg, Workers: 1, QueueDepth: 4, Sweep: node})
	node.Attach(mgr)
	t.Cleanup(func() { _ = mgr.Drain(context.Background()) })
	return mgr
}

// waitJob polls a job until ok accepts its status.
func waitJob(t *testing.T, mgr *campaign.Manager, id string, ok func(campaign.JobStatus) bool) campaign.JobStatus {
	t.Helper()
	var st campaign.JobStatus
	waitFor(t, "job "+id, func() bool {
		var err error
		if st, err = mgr.Get(id); err != nil {
			t.Fatal(err)
		}
		return ok(st)
	})
	return st
}

// runJob submits spec, waits for the job to end and returns its final
// status and its whole event history.
func runJob(t *testing.T, mgr *campaign.Manager, spec campaign.Spec) (campaign.JobStatus, []campaign.Event) {
	t.Helper()
	st, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitJob(t, mgr, st.ID, func(st campaign.JobStatus) bool { return st.State.Terminal() })
	evs, _, _, err := mgr.EventsSince(st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st, evs
}

// runStates lists a job's run states in order.
func runStates(st campaign.JobStatus) []campaign.State {
	var out []campaign.State
	for _, r := range st.Runs {
		out = append(out, r.State)
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainCoversForwardedRuns is the drain contract for fabric traffic:
// a forwarded-in run that is already executing completes and delivers
// its bytes before Drain returns, while new forwarded work is refused
// with ErrDraining the moment draining starts.
func TestDrainCoversForwardedRuns(t *testing.T) {
	reg, _, release := testRegistry()
	node, err := New(Config{Self: "solo", Fingerprint: reg.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	mgr := campaign.New(campaign.Config{Registry: reg, Workers: 1, QueueDepth: 4})
	node.Attach(mgr)

	// A forwarded-in run starts executing and blocks on the gate.
	type outcome struct {
		rec []byte
		err error
	}
	served := make(chan outcome, 1)
	go func() {
		rec, _, err := node.ServeForwarded(context.Background(),
			ForwardRequest{Experiment: "gate", Seed: 1})
		served <- outcome{rec, err}
	}()
	waitFor(t, "forwarded run to start", func() bool {
		return node.Status().Stats.ForwardedIn == 1
	})

	// Drain starts; it must not complete while the forwarded run holds.
	drained := make(chan error, 1)
	go func() { drained <- node.Drain(context.Background()) }()
	waitFor(t, "draining state", func() bool { return node.Status().State == "draining" })

	// New forwarded work is refused immediately: the sender will 503 and
	// hand the shard back.
	if _, _, err := node.ServeForwarded(context.Background(),
		ForwardRequest{Experiment: "gate", Seed: 2}); !errors.Is(err, ErrDraining) {
		t.Fatalf("forward into draining node: err = %v, want ErrDraining", err)
	}

	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a forwarded run was still executing", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Release the gate: the in-flight run completes with its bytes, and
	// only then does Drain return.
	release()
	out := <-served
	if out.err != nil || len(out.rec) == 0 {
		t.Fatalf("forwarded run after release: rec=%d bytes err=%v", len(out.rec), out.err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Drain is idempotent and the manager is drained too.
	if err := node.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Submit(campaign.Spec{Runs: []campaign.RunSpec{{Experiment: "gate", Seed: 3}}}); !errors.Is(err, campaign.ErrDraining) {
		t.Fatalf("post-drain submit: %v, want campaign.ErrDraining", err)
	}
}

// TestSweepRunsEveryRunOnce: a 40-run job on a one-member fleet runs
// every run exactly once, on this node, and its body lists the records
// in submission order.
func TestSweepRunsEveryRunOnce(t *testing.T) {
	reg, echoRuns, _ := testRegistry()
	mgr := fleetOfOne(t, reg)

	const runsN = 40
	var spec campaign.Spec
	for i := range runsN {
		spec.Runs = append(spec.Runs, campaign.RunSpec{Experiment: "echo", Seed: uint64(i)})
	}
	st, evs := runJob(t, mgr, spec)
	if st.State != campaign.StateDone || st.Progress.Done != runsN {
		t.Fatalf("job %s (%s) with %d of %d runs done, want done", st.State, st.Error, st.Progress.Done, runsN)
	}
	if n := echoRuns.Load(); n != runsN {
		t.Fatalf("echo ran %d times, want %d", n, runsN)
	}
	reported := map[campaign.State]int{}
	for _, ev := range evs {
		if ev.Run != "" {
			reported[ev.RunState]++
		}
	}
	if want := (map[campaign.State]int{campaign.StateRunning: runsN, campaign.StateDone: runsN}); !reflect.DeepEqual(reported, want) {
		t.Fatalf("run events %v, want %v", reported, want)
	}
	rb, err := mgr.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var body struct{ Runs []campaign.RunRecord }
	if err := json.Unmarshal(rb.Body, &body); err != nil || len(body.Runs) != runsN {
		t.Fatalf("body holds %d records (%v), want %d", len(body.Runs), err, runsN)
	}
	for i, r := range body.Runs {
		if r.Seed != uint64(i) {
			t.Fatalf("record %d holds seed %d, want %d", i, r.Seed, i)
		}
	}
}

// TestSweepFailureCancelsRemaining: the first real failure stops
// dispatch. The runs before it are done, the runs after it are
// cancelled without running, and every run reports exactly once.
func TestSweepFailureCancelsRemaining(t *testing.T) {
	reg, echoRuns, _ := testRegistry()
	mgr := fleetOfOne(t, reg)

	const runsN, failAt = 30, 3
	var spec campaign.Spec
	for i := range runsN {
		rs := campaign.RunSpec{Experiment: "echo", Seed: uint64(i)}
		if i == failAt {
			rs.Experiment = "fail"
		}
		spec.Runs = append(spec.Runs, rs)
	}
	st, evs := runJob(t, mgr, spec)
	if st.State != campaign.StateFailed || !strings.Contains(st.Error, "deterministic boom") {
		t.Fatalf("job %s (%q), want failed on the failing run", st.State, st.Error)
	}
	for i, s := range runStates(st) {
		want := campaign.StateCancelled
		switch {
		case i < failAt:
			want = campaign.StateDone
		case i == failAt:
			want = campaign.StateFailed
		}
		if s != want {
			t.Errorf("run %d ended %s, want %s", i, s, want)
		}
	}
	if n := echoRuns.Load(); n != failAt {
		t.Fatalf("echo ran %d times, want %d: runs after the failure must not start", n, failAt)
	}
	terminal := 0
	for _, ev := range evs {
		if ev.Run != "" && ev.RunState.Terminal() {
			terminal++
		}
	}
	if terminal != runsN {
		t.Fatalf("%d terminal run events, want one per run (%d)", terminal, runsN)
	}
}

// TestSweepKeepsPlacementAndSlots: a job whose runs all belong to one
// peer keeps both its placement and its concurrency. With self, "a" and
// "b" in the ring there are three dispatch slots, so three forwards to
// "a" must be in flight at once, and every run must still go to "a": a
// slot that re-homed its run would defeat cache placement, and a pool
// that ran one run at a time would leave a skewed sweep serial.
func TestSweepKeepsPlacementAndSlots(t *testing.T) {
	const slots, runsN = 3, 6
	deadline, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	full := make(chan struct{})
	var fill sync.Once
	var mu sync.Mutex
	inflight, peak := 0, 0
	hits := map[string]int{}
	peer := func(id string) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req ForwardRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			hits[id]++
			inflight++
			peak = max(peak, inflight)
			if inflight == slots {
				fill.Do(func() { close(full) })
			}
			mu.Unlock()
			select {
			case <-full:
			case <-deadline.Done():
			}
			mu.Lock()
			inflight--
			mu.Unlock()
			w.Header().Set("X-Cache", string(campaign.TierMiss))
			fmt.Fprintf(w, `{"seed":%d}`, req.Seed)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	a, b := peer("a"), peer("b")

	reg := registry.New(&registry.Experiment{
		Name: "x", Doc: "runs only on peers", ArtifactKinds: []string{"text"},
		Run: func(context.Context, registry.Request) (*registry.Result, error) {
			t.Error("a run owned by a reachable peer ran locally")
			return &registry.Result{}, nil
		},
	})
	node, err := New(Config{Self: "self", Fingerprint: reg.Fingerprint(),
		Peers: []Peer{{ID: "a", Addr: a.URL}, {ID: "b", Addr: b.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	mgr := campaign.New(campaign.Config{Registry: reg, Workers: 1, Sweep: node})
	node.Attach(mgr)
	defer mgr.Drain(context.Background())

	var spec campaign.Spec
	var records []string
	for seed := uint64(0); len(spec.Runs) < runsN; seed++ {
		rs := campaign.RunSpec{Experiment: "x", Seed: seed}
		if _, key, err := mgr.ResolveRun(rs); err != nil {
			t.Fatal(err)
		} else if node.ring.Owner(key) == "a" {
			spec.Runs = append(spec.Runs, rs)
			records = append(records, fmt.Sprintf(`{"seed":%d}`, seed))
		}
	}
	st, _ := runJob(t, mgr, spec)
	if st.State != campaign.StateDone {
		t.Fatalf("job %s (%s), want done", st.State, st.Error)
	}
	for i, r := range st.Runs {
		if r.Tier != campaign.TierForward {
			t.Errorf("run %d served from %q, want forward", i, r.Tier)
		}
	}
	rb, err := mgr.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"runs":[` + strings.Join(records, ",") + `]}`; string(rb.Body) != want {
		t.Fatalf("body %s, want %s", rb.Body, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(hits, map[string]int{"a": runsN}) {
		t.Fatalf("forwards per peer %v, want all %d on a", hits, runsN)
	}
	if peak != slots {
		t.Fatalf("peak forwards in flight = %d, want %d (one per ring member)", peak, slots)
	}
}

// TestOneJobPath: a standalone manager and a one-member fleet run jobs
// down the same dispatch loop. The same failing 3-run job, its
// resubmission (the failure now served from the memory tier) and a
// 3-run job cancelled mid-run end with the same run states, cached
// flags, tiers and event sequences on both.
func TestOneJobPath(t *testing.T) {
	reg, _, release := testRegistry()
	standalone := campaign.New(campaign.Config{Registry: reg, Workers: 1, QueueDepth: 4})
	t.Cleanup(func() { _ = standalone.Drain(context.Background()) })
	fleet := fleetOfOne(t, reg)
	t.Cleanup(release) // runs before the drains

	failing := campaign.Spec{Runs: []campaign.RunSpec{
		{Experiment: "fail", Seed: 1}, {Experiment: "echo", Seed: 1}, {Experiment: "echo", Seed: 2},
	}}
	gated := campaign.Spec{Runs: []campaign.RunSpec{
		{Experiment: "gate", Seed: 1}, {Experiment: "echo", Seed: 3}, {Experiment: "echo", Seed: 4},
	}}
	afterFailure := []campaign.State{campaign.StateFailed, campaign.StateCancelled, campaign.StateCancelled}
	allCancelled := []campaign.State{campaign.StateCancelled, campaign.StateCancelled, campaign.StateCancelled}

	type outcome struct {
		runs   []campaign.RunStatus
		events []campaign.Event
	}
	drive := func(mgr *campaign.Manager) []outcome {
		var out []outcome
		for pass := 0; pass < 2; pass++ {
			st, evs := runJob(t, mgr, failing)
			if st.State != campaign.StateFailed || !reflect.DeepEqual(runStates(st), afterFailure) {
				t.Fatalf("pass %d: job %s with runs %v, want failed with %v", pass, st.State, runStates(st), afterFailure)
			}
			if r := st.Runs[0]; pass == 1 && (!r.Cached || r.Tier != campaign.TierMem) {
				t.Fatalf("resubmitted failure: cached=%v tier=%q, want a memory hit", r.Cached, r.Tier)
			}
			out = append(out, outcome{st.Runs, evs})
		}
		st, err := mgr.Submit(gated)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, mgr, st.ID, func(st campaign.JobStatus) bool { return st.Runs[0].State == campaign.StateRunning })
		if _, err := mgr.Cancel(st.ID); err != nil {
			t.Fatal(err)
		}
		st = waitJob(t, mgr, st.ID, func(st campaign.JobStatus) bool { return st.State.Terminal() })
		if st.State != campaign.StateCancelled || !reflect.DeepEqual(runStates(st), allCancelled) {
			t.Fatalf("cancelled job %s with runs %v, want cancelled with %v", st.State, runStates(st), allCancelled)
		}
		evs, _, _, err := mgr.EventsSince(st.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, outcome{st.Runs, evs})
	}
	solo, onFleet := drive(standalone), drive(fleet)
	for i, name := range []string{"failing job", "resubmitted failing job", "cancelled job"} {
		if !reflect.DeepEqual(solo[i].runs, onFleet[i].runs) {
			t.Errorf("%s: runs differ\nstandalone %+v\nfleet      %+v", name, solo[i].runs, onFleet[i].runs)
		}
		if !reflect.DeepEqual(solo[i].events, onFleet[i].events) {
			t.Errorf("%s: events differ\nstandalone %+v\nfleet      %+v", name, solo[i].events, onFleet[i].events)
		}
	}
}

// backoffLadder is the peer-down window after each of seven consecutive
// failures: retryAfter doubled per failure until retryMax caps it.
var backoffLadder = []time.Duration{
	5 * time.Second, 10 * time.Second, 20 * time.Second,
	40 * time.Second, 80 * time.Second, 2 * time.Minute, 2 * time.Minute,
}

// TestPeerDownBackoff pins the capped exponential peer-down window:
// consecutive failed forwards walk the routing blackout up the ladder
// from retryAfter to retryMax, a successful exchange resets it, and all
// of it is observable through routable with an injected clock — no
// real sleeps.
func TestPeerDownBackoff(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	node, err := New(Config{
		Self:  "self",
		Peers: []Peer{{ID: "p", Addr: "http://p.invalid"}},
		Now:   func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range backoffLadder {
		node.markDown("p")
		if node.routable("p") {
			t.Fatalf("failure %d: peer routable immediately after markDown", i+1)
		}
		now = now.Add(w - time.Millisecond)
		if node.routable("p") {
			t.Fatalf("failure %d: peer routable before its %v window elapsed", i+1, w)
		}
		now = now.Add(time.Millisecond)
		if !node.routable("p") {
			t.Fatalf("failure %d: peer still down after its %v window", i+1, w)
		}
	}
	// A successful exchange resets the ladder to the base window.
	node.markUp("p")
	node.markDown("p")
	now = now.Add(retryAfter)
	if !node.routable("p") {
		t.Fatal("post-reset window exceeds retryAfter: backoff did not reset")
	}
}

// TestBackoffWindowCap: doubling clamps exactly at retryMax, which is
// not a power-of-two multiple of retryAfter, and never overflows for
// absurd failure counts.
func TestBackoffWindowCap(t *testing.T) {
	for i, w := range backoffLadder {
		if got := backoffWindow(i + 1); got != w {
			t.Errorf("backoffWindow(failures=%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := backoffWindow(1000); got != retryMax {
		t.Errorf("backoffWindow(failures=1000) = %v, want cap %v", got, retryMax)
	}
}

// ringPeer serves a /v1/ring document carrying fingerprint, as a peer's
// API does.
func ringPeer(t *testing.T, fingerprint string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/v1/ring" {
			http.NotFound(w, r)
			return
		}
		_ = json.NewEncoder(w).Encode(Status{Self: "peer", State: "ready", Fingerprint: fingerprint})
	}))
	t.Cleanup(srv.Close)
	return srv
}

// peerStates maps each remote member to its /v1/ring state.
func peerStates(n *Node) map[string]string {
	out := map[string]string{}
	for _, p := range n.Status().Peers {
		out[p.ID] = p.State
	}
	return out
}

// TestRefreshReportsEveryFailure: with two failing peers, Refresh names
// both, in peer-ID order, so the start-up log reads the same on every
// run instead of naming whichever failing peer map order visits first.
func TestRefreshReportsEveryFailure(t *testing.T) {
	const fp = "catalog-fp"
	match := ringPeer(t, fp)
	other := ringPeer(t, "another-catalog")
	gone := httptest.NewServer(http.NotFoundHandler())
	goneURL := gone.URL
	gone.Close()
	var first string
	for run := 0; run < 20; run++ {
		node, err := New(Config{Self: "self", Fingerprint: fp, Peers: []Peer{
			{ID: "match", Addr: match.URL}, {ID: "gone", Addr: goneURL}, {ID: "bad-fp", Addr: other.URL}}})
		if err != nil {
			t.Fatal(err)
		}
		err = node.Refresh(context.Background())
		if err == nil {
			t.Fatal("Refresh reported no error for two failing peers")
		}
		msg := err.Error()
		if run == 0 {
			first = msg
			bad, lost := strings.Index(msg, "fabric: peer bad-fp: "), strings.Index(msg, "fabric: peer gone: ")
			if bad < 0 || lost < 0 || bad > lost || strings.Contains(msg, "peer match") {
				t.Fatalf("Refresh error %q: want bad-fp then gone, and nothing about match", msg)
			}
		} else if msg != first {
			t.Fatalf("run %d: Refresh error %q differs from run 0's %q", run, msg, first)
		}
	}
}

// TestRefreshHungPeerSparesOthers: peers that accept a probe but never
// answer use up only their own probes. Every peer is contacted within
// the caller's deadline, and a healthy peer marked down beforehand reads
// ready once Refresh returns.
func TestRefreshHungPeerSparesOthers(t *testing.T) {
	const fp = "catalog-fp"
	release := make(chan struct{})
	var hits atomic.Int32
	hung := func() *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			select {
			case <-r.Context().Done():
			case <-release:
			}
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	hungA, hungB := hung(), hung()
	t.Cleanup(func() { close(release) }) // runs before the servers close
	healthy := ringPeer(t, fp)
	now := time.Unix(1_700_000_000, 0)
	node, err := New(Config{Self: "self", Fingerprint: fp, Now: func() time.Time { return now },
		Peers: []Peer{{ID: "a-hung", Addr: hungA.URL}, {ID: "b-hung", Addr: hungB.URL}, {ID: "c-healthy", Addr: healthy.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	node.markDown("c-healthy")
	if got := peerStates(node)["c-healthy"]; got != "down" {
		t.Fatalf("healthy peer reads %q before Refresh, want down", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	err = node.Refresh(ctx)
	if err == nil || !strings.Contains(err.Error(), "peer a-hung") || !strings.Contains(err.Error(), "peer b-hung") {
		t.Fatalf("Refresh error %v: want both hung peers named", err)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("%d of 2 hung peers were contacted before the deadline", n)
	}
	if got := peerStates(node)["c-healthy"]; got != "ready" {
		t.Fatalf("healthy peer reads %q after Refresh, want ready", got)
	}
}

// TestRefreshProbesPeers pins the start-up probe: a peer serving the
// same catalog fingerprint reads ready; one serving another reads
// incompatible, Refresh reports it, and Place never picks it; an
// unreachable peer makes Refresh fail but stays ready, not down, so the
// first sweep still routes to it (see probe).
func TestRefreshProbesPeers(t *testing.T) {
	const fp = "catalog-fp"
	match := ringPeer(t, fp)
	other := ringPeer(t, "another-catalog")
	gone := httptest.NewServer(http.NotFoundHandler())
	goneURL := gone.URL
	gone.Close()
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }

	node, err := New(Config{Self: "self", Fingerprint: fp, Now: clock,
		Peers: []Peer{{ID: "match", Addr: match.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Refresh(context.Background()); err != nil {
		t.Fatalf("Refresh against a matching peer: %v", err)
	}
	if got := peerStates(node)["match"]; got != "ready" {
		t.Fatalf("matching peer reads %q, want ready", got)
	}

	node, err = New(Config{Self: "self", Fingerprint: fp, Now: clock,
		Peers: []Peer{{ID: "match", Addr: match.URL}, {ID: "gone", Addr: goneURL}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Refresh(context.Background()); err == nil {
		t.Fatal("Refresh reported no error for an unreachable peer")
	}
	if st := peerStates(node); st["gone"] != "ready" || st["match"] != "ready" {
		t.Fatalf("after an unreachable probe: states %v, want both ready", st)
	}
	if !node.routable("gone") {
		t.Fatal("unreachable peer was marked down by the probe")
	}

	node, err = New(Config{Self: "self", Fingerprint: fp, Now: clock,
		Peers: []Peer{{ID: "match", Addr: match.URL}, {ID: "other", Addr: other.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Refresh(context.Background()); err == nil {
		t.Fatal("Refresh reported no error for a fingerprint mismatch")
	}
	if st := peerStates(node); st["other"] != "incompatible" || st["match"] != "ready" {
		t.Fatalf("after a mismatched probe: states %v, want other incompatible, match ready", st)
	}
	owned := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("%064d", i)
		if node.ring.Owner(key) == "other" {
			owned++
		}
		if owners, _ := node.Place([]string{key}); owners[0] == "other" {
			t.Fatalf("Place(%s) chose the incompatible peer", key)
		}
	}
	if owned == 0 {
		t.Fatal("the incompatible peer owns none of the keys; the executor check is vacuous")
	}
}
