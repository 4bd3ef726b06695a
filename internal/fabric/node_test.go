package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/registry"
)

// gateRegistry returns a registry whose single "gate" experiment blocks
// until release is called (or its context fires) — the knob the drain
// interlock test needs.
func gateRegistry() (*registry.Registry, func()) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	reg := registry.New(&registry.Experiment{
		Name: "gate", Doc: "blocks until released", ArtifactKinds: []string{"text"},
		Run: func(ctx context.Context, _ registry.Request) (*registry.Result, error) {
			select {
			case <-gate:
				return &registry.Result{Text: "opened\n"}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	return reg, release
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
	reg, release := gateRegistry()
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

// TestWorkStealingDrainsQueues: a sweep over a single-member ring drains
// the shared queue: every shard executes exactly once, on self, and
// reports its own index-ordered record.
func TestWorkStealingDrainsQueues(t *testing.T) {
	reg, _ := gateRegistry()
	node, err := New(Config{Self: "solo", Fingerprint: reg.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}

	const shardsN = 40
	shards := make([]campaign.Shard, shardsN)
	for i := range shards {
		shards[i] = campaign.Shard{
			Index: i,
			Run:   campaign.RunSpec{Experiment: "x", Seed: uint64(i)},
			Key:   fmt.Sprintf("%064d", i),
		}
	}
	var mu sync.Mutex
	startedN := 0
	doneSet := make(map[int]int)
	local := campaign.LocalRunFunc(func(_ context.Context, rs campaign.RunSpec, _ string) (json.RawMessage, campaign.Tier, error) {
		return json.RawMessage(fmt.Sprintf(`{"seed":%d}`, rs.Seed)), campaign.TierMiss, nil
	})
	err = node.ExecuteSweep(context.Background(), shards, local,
		func(i int, peer string) {
			mu.Lock()
			startedN++
			mu.Unlock()
			if peer != "solo" {
				t.Errorf("shard %d started on %q", i, peer)
			}
		},
		func(i int, res campaign.ShardResult) {
			mu.Lock()
			doneSet[i]++
			mu.Unlock()
			if res.Err != nil {
				t.Errorf("shard %d: %v", i, res.Err)
			}
			if want := fmt.Sprintf(`{"seed":%d}`, i); string(res.Rec) != want {
				t.Errorf("shard %d record %s, want %s", i, res.Rec, want)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if startedN != shardsN || len(doneSet) != shardsN {
		t.Fatalf("started %d, done %d distinct, want %d", startedN, len(doneSet), shardsN)
	}
	for i, c := range doneSet {
		if c != 1 {
			t.Fatalf("shard %d completed %d times", i, c)
		}
	}
}

// TestSweepFailureCancelsRemaining: the first real shard failure stops
// dispatch; every shard still gets exactly one done callback (failed,
// done, or cancelled).
func TestSweepFailureCancelsRemaining(t *testing.T) {
	reg, _ := gateRegistry()
	node, err := New(Config{Self: "solo", Fingerprint: reg.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	const shardsN = 30
	shards := make([]campaign.Shard, shardsN)
	for i := range shards {
		shards[i] = campaign.Shard{Index: i, Key: fmt.Sprintf("%064d", i)}
	}
	boom := errors.New("boom")
	var mu sync.Mutex
	outcomes := make(map[int]error)
	local := campaign.LocalRunFunc(func(_ context.Context, _ campaign.RunSpec, key string) (json.RawMessage, campaign.Tier, error) {
		if key == shards[3].Key {
			return nil, campaign.TierMiss, boom
		}
		return json.RawMessage(`{}`), campaign.TierMiss, nil
	})
	err = node.ExecuteSweep(context.Background(), shards, local,
		func(int, string) {},
		func(i int, res campaign.ShardResult) {
			mu.Lock()
			if _, dup := outcomes[i]; dup {
				t.Errorf("shard %d reported twice", i)
			}
			outcomes[i] = res.Err
			mu.Unlock()
		})
	if err != nil {
		t.Fatalf("sweep error: %v (shard failures travel per-shard)", err)
	}
	if len(outcomes) != shardsN {
		t.Fatalf("%d outcomes, want %d", len(outcomes), shardsN)
	}
	if !errors.Is(outcomes[3], boom) {
		t.Fatalf("failing shard outcome: %v", outcomes[3])
	}
}

// TestStealPreservesOwner: a sweep whose shards all belong to one peer
// keeps both its placement and its concurrency. With self, "a" and "b"
// in the ring there are three dispatch slots, so three forwards to "a"
// must be in flight at once, and every shard must still run on "a" —
// a slot that re-homed its shard to itself would defeat cache placement,
// and a pool that ran one shard at a time would leave a skewed sweep
// serial.
func TestStealPreservesOwner(t *testing.T) {
	const slots, shardsN = 3, 6
	deadline, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	full := make(chan struct{})
	var fill sync.Once
	var mu sync.Mutex
	inflight, peak := 0, 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ForwardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		inflight++
		if inflight > peak {
			peak = inflight
		}
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
	defer srv.Close()

	node, err := New(Config{Self: "self", Peers: []Peer{{ID: "a", Addr: srv.URL}, {ID: "b", Addr: srv.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	var shards []campaign.Shard
	for i := 0; len(shards) < shardsN; i++ {
		if key := fmt.Sprintf("%064d", i); node.ring.Owner(key) == "a" {
			n := len(shards)
			shards = append(shards, campaign.Shard{
				Index: n, Run: campaign.RunSpec{Experiment: "x", Seed: uint64(n)}, Key: key,
			})
		}
	}
	local := campaign.LocalRunFunc(func(context.Context, campaign.RunSpec, string) (json.RawMessage, campaign.Tier, error) {
		t.Error("a shard owned by a reachable peer ran locally")
		return json.RawMessage(`{}`), campaign.TierMiss, nil
	})
	var doneMu sync.Mutex
	doneN := make(map[int]int)
	err = node.ExecuteSweep(context.Background(), shards, local,
		func(i int, peer string) {
			if peer != "a" {
				t.Errorf("shard %d started on %q, want its owner a", i, peer)
			}
		},
		func(i int, res campaign.ShardResult) {
			doneMu.Lock()
			doneN[i]++
			doneMu.Unlock()
			if want := fmt.Sprintf(`{"seed":%d}`, i); res.Err != nil || string(res.Rec) != want {
				t.Errorf("shard %d: rec=%s err=%v, want %s", i, res.Rec, res.Err, want)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shardsN; i++ {
		if doneN[i] != 1 {
			t.Errorf("shard %d completed %d times", i, doneN[i])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak != slots {
		t.Fatalf("peak forwards in flight = %d, want %d (one per ring member)", peak, slots)
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
// incompatible, Refresh reports it, and executorFor never picks it; an
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
		if got := node.executorFor(key); got == "other" {
			t.Fatalf("executorFor(%s) chose the incompatible peer", key)
		}
	}
	if owned == 0 {
		t.Fatal("the incompatible peer owns none of the keys; the executor check is vacuous")
	}
}
