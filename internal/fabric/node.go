package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
)

// ForwardRequest is the wire body of POST /v1/fabric/run: one resolved
// run plus the cache key the sender computed for it. The receiver
// re-resolves and must derive the same key — a mismatch means the two
// nodes disagree about the catalog and the forward is rejected rather
// than silently caching divergent bytes.
type ForwardRequest struct {
	Experiment string            `json:"experiment"`
	Seed       uint64            `json:"seed"`
	Params     map[string]string `json:"params,omitempty"`
	Key        string            `json:"key"`
}

// Fingerprint/peer headers of the forward protocol.
const (
	HeaderFingerprint = "X-Fabric-Fingerprint"
	HeaderFrom        = "X-Fabric-From"
)

// ErrDraining rejects forwarded-in work while the node is leaving the
// ring; the sender hands the shard back (runs it elsewhere).
var ErrDraining = errors.New("fabric: node is draining")

// BadForwardError rejects a forwarded run before execution (catalog
// mismatch, malformed params). The sender must not retry it here.
type BadForwardError struct{ Reason string }

func (e *BadForwardError) Error() string { return "fabric: bad forward: " + e.Reason }

// runError carries a deterministic experiment failure back from a peer:
// the run executed and failed; re-running it anywhere fails the same
// way, so the sender propagates it instead of handing the shard back.
type runError struct{ msg string }

func (e *runError) Error() string { return e.msg }

// Peer names one remote member: a stable ID and a base URL
// ("http://host:port").
type Peer struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Config configures a Node.
type Config struct {
	// Self is this node's peer ID. Required, and must be unique across
	// the fleet.
	Self string
	// Peers are the remote members (self excluded). Membership is
	// static configuration: every node must be started with the same
	// ID set or ownership disagrees.
	Peers []Peer
	// Fingerprint is the registry catalog fingerprint
	// (registry.Registry.Fingerprint). Nodes refuse to exchange work
	// across different fingerprints.
	Fingerprint string
	// Client issues forward requests (default: no-timeout client;
	// cancellation travels through contexts, simulations can be slow).
	Client *http.Client
	// Now is the clock the down-window gating reads (default
	// time.Now). Injectable so backoff behavior is testable without
	// real sleeps.
	Now func() time.Time
}

// A peer stays marked down for retryAfter after its first failed
// forward. Consecutive failures double the window — a flapping or dead
// peer is probed ever less often — until retryMax caps it; any
// successful exchange resets the backoff to retryAfter.
const (
	retryAfter = 5 * time.Second
	retryMax   = 2 * time.Minute
)

// peerState is the node's live view of one remote member.
type peerState struct {
	id   string
	addr string
	// downUntil gates routing after a failed forward; zero = ready.
	downUntil time.Time
	// failures counts consecutive failed forwards; it scales the
	// backoff window and resets on any successful exchange.
	failures int
	// incompatible marks a fingerprint mismatch: never routed again
	// (a restart with a matching catalog re-creates the Node anyway).
	incompatible bool
}

// NodeStats counts fabric traffic.
type NodeStats struct {
	ForwardedIn  uint64 `json:"forwarded_in"`
	ForwardedOut uint64 `json:"forwarded_out"`
	// Handbacks counts shards a peer refused (draining/down) that were
	// re-executed locally.
	Handbacks uint64 `json:"handbacks"`
	// Steals is always 0: the campaign dispatch loop takes runs from
	// one shared cursor, so no run is taken from another member's
	// backlog. The field stays until the benchmark drops the
	// fabric.steals metric that reads it.
	Steals uint64 `json:"steals"`
}

// PeerStatus is one row of the /v1/ring view.
type PeerStatus struct {
	ID    string `json:"id"`
	Addr  string `json:"addr,omitempty"`
	State string `json:"state"` // ready | down | incompatible
}

// Status is the /v1/ring document.
type Status struct {
	Self        string       `json:"self"`
	State       string       `json:"state"` // ready | draining
	Fingerprint string       `json:"fingerprint"`
	Peers       []PeerStatus `json:"peers"`
	Stats       NodeStats    `json:"stats"`
}

// Node ties a local campaign.Manager into the fabric. It implements
// campaign.Fabric, placing each run on its ring owner and forwarding it
// there, and it serves the forwarded-in intake (peer side) behind the
// HTTP layer. The manager's dispatch loop decides when runs go.
type Node struct {
	cfg    Config
	client *http.Client

	mu        sync.Mutex
	mgr       *campaign.Manager
	ring      *Ring
	peers     map[string]*peerState
	draining  bool
	inflight  int           // forwarded-in runs being served
	drainDone chan struct{} // closed when draining && inflight == 0
	stats     NodeStats
}

// New builds a Node. Call Attach before serving traffic.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("fabric: Config.Self is required")
	}
	n := &Node{
		cfg:    cfg,
		client: cfg.Client,
		peers:  make(map[string]*peerState),
	}
	if n.client == nil {
		n.client = &http.Client{}
	}
	for _, p := range cfg.Peers {
		if err := n.addPeerLocked(p); err != nil {
			return nil, err
		}
	}
	n.rebuildRingLocked()
	return n, nil
}

// Attach binds the local manager, before it runs its first job. The
// Node and Manager reference each other (the Manager places and
// forwards runs through the Node, the Node serves forwarded-in and
// handed-back runs through the Manager), so construction is two-phase.
func (n *Node) Attach(mgr *campaign.Manager) {
	n.mu.Lock()
	n.mgr = mgr
	n.mu.Unlock()
}

func (n *Node) addPeerLocked(p Peer) error {
	if p.ID == "" || p.Addr == "" {
		return fmt.Errorf("fabric: peer needs id and addr (got %+v)", p)
	}
	if p.ID == n.cfg.Self {
		return fmt.Errorf("fabric: peer %q collides with self", p.ID)
	}
	if _, dup := n.peers[p.ID]; dup {
		return fmt.Errorf("fabric: duplicate peer %q", p.ID)
	}
	n.peers[p.ID] = &peerState{id: p.ID, addr: p.Addr}
	return nil
}

func (n *Node) rebuildRingLocked() {
	ids := make([]string, 0, len(n.peers)+1)
	ids = append(ids, n.cfg.Self)
	for id := range n.peers {
		ids = append(ids, id)
	}
	n.ring = NewRing(ids...)
}

// Fingerprint returns the catalog fingerprint this node was built with.
func (n *Node) Fingerprint() string { return n.cfg.Fingerprint }

// Self returns this node's peer ID.
func (n *Node) Self() string { return n.cfg.Self }

// Status snapshots the node for /v1/ring.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := Status{Self: n.cfg.Self, State: "ready", Fingerprint: n.cfg.Fingerprint, Stats: n.stats}
	if n.draining {
		st.State = "draining"
	}
	for _, id := range n.ring.Peers() {
		if id == n.cfg.Self {
			continue
		}
		p := n.peers[id]
		state := "ready"
		switch {
		case p.incompatible:
			state = "incompatible"
		case n.now().Before(p.downUntil):
			state = "down"
		}
		st.Peers = append(st.Peers, PeerStatus{ID: p.id, Addr: p.addr, State: state})
	}
	return st
}

// Refresh probes every peer's /v1/ring concurrently under ctx, verifying
// reachability and catalog fingerprint, so a peer that accepts but never
// answers costs the others none of the budget. Voltbootd calls it once
// at startup to surface misconfiguration early; unreachable peers are
// reported, not marked down (see probe). Every failure is returned,
// joined in peer-ID order. Routing self-heals lazily either way: a
// failed forward marks the peer down and the shard runs locally.
func (n *Node) Refresh(ctx context.Context) error {
	n.mu.Lock()
	peers := make([]*peerState, 0, len(n.peers))
	for _, id := range n.ring.Peers() { // sorted IDs
		if p, ok := n.peers[id]; ok {
			peers = append(peers, p)
		}
	}
	n.mu.Unlock()
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := n.probe(ctx, p); err != nil {
				errs[i] = fmt.Errorf("fabric: peer %s: %w", p.id, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// probe checks one peer's /v1/ring. Transport failures are reported but
// do NOT mark the peer down: fleets start simultaneously, so a startup
// probe routinely races a peer's listener coming up, and poisoning the
// routing table for retryAfter would send the first sweep's every shard
// to local fallback. A genuinely dead peer costs one refused connection
// on the first forward, which is where down-marking belongs.
func (n *Node) probe(ctx context.Context, p *peerState) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.addr+"/v1/ring", nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if st.Fingerprint != n.cfg.Fingerprint {
		p.incompatible = true
		return fmt.Errorf("catalog fingerprint mismatch: %s vs %s", st.Fingerprint, n.cfg.Fingerprint)
	}
	p.incompatible = false
	p.downUntil = time.Time{}
	p.failures = 0
	return nil
}

// now reads the injectable clock.
func (n *Node) now() time.Time {
	if n.cfg.Now != nil {
		return n.cfg.Now()
	}
	return time.Now()
}

func (n *Node) markDown(id string) {
	n.mu.Lock()
	if p, ok := n.peers[id]; ok {
		p.failures++
		p.downUntil = n.now().Add(backoffWindow(p.failures))
	}
	n.mu.Unlock()
}

// markUp records a successful exchange with a peer: the consecutive-
// failure count and any pending down-window are cleared, so the next
// failure starts the backoff from retryAfter again.
func (n *Node) markUp(id string) {
	n.mu.Lock()
	if p, ok := n.peers[id]; ok {
		p.failures = 0
		p.downUntil = time.Time{}
	}
	n.mu.Unlock()
}

// backoffWindow is the down-window after the failures-th consecutive
// failure: retryAfter doubled per failure, capped at retryMax.
func backoffWindow(failures int) time.Duration {
	w := retryAfter
	for i := 1; i < failures; i++ {
		if w >= retryMax/2 {
			return retryMax
		}
		w *= 2
	}
	return w
}

func (n *Node) markIncompatible(id string) {
	n.mu.Lock()
	if p, ok := n.peers[id]; ok {
		p.incompatible = true
	}
	n.mu.Unlock()
}

// routable reports whether a peer is currently worth forwarding to.
func (n *Node) routable(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.routableLocked(id)
}

func (n *Node) routableLocked(id string) bool {
	p, ok := n.peers[id]
	return ok && !p.incompatible && !n.now().Before(p.downUntil)
}

// ServeForwarded executes one forwarded-in run against the local cache
// hierarchy. It is the peer-side half of the forward protocol: gated by
// the drain state, tracked so Drain can wait for it, and re-resolved so
// a catalog disagreement is caught before it can poison the store.
func (n *Node) ServeForwarded(ctx context.Context, req ForwardRequest) (json.RawMessage, campaign.Tier, error) {
	n.mu.Lock()
	if n.draining {
		n.mu.Unlock()
		return nil, "", ErrDraining
	}
	if n.mgr == nil {
		n.mu.Unlock()
		return nil, "", errors.New("fabric: node not attached")
	}
	mgr := n.mgr
	n.inflight++
	n.stats.ForwardedIn++
	n.mu.Unlock()
	defer n.endForwarded()

	resolved, key, err := mgr.ResolveRun(campaign.RunSpec{
		Experiment: req.Experiment, Seed: req.Seed, Params: req.Params,
	})
	if err != nil {
		return nil, "", &BadForwardError{Reason: err.Error()}
	}
	if req.Key != "" && req.Key != key {
		return nil, "", &BadForwardError{Reason: fmt.Sprintf("key mismatch: sender %s, local %s", req.Key, key)}
	}
	return mgr.ServeRun(ctx, resolved, key)
}

func (n *Node) endForwarded() {
	n.mu.Lock()
	n.inflight--
	if n.draining && n.inflight == 0 && n.drainDone != nil {
		close(n.drainDone)
		n.drainDone = nil
	}
	n.mu.Unlock()
}

// Drain takes the node out of the ring without dropping work: new
// forwarded-in runs are refused (ErrDraining → HTTP 503, the sender
// hands the shard back to the ring), in-flight forwarded runs complete
// and deliver their responses, and only then does the local manager
// drain its own queue. The 503-draining response to regular submitters
// therefore never races ahead of work the fleet still expects from us.
func (n *Node) Drain(ctx context.Context) error {
	n.mu.Lock()
	var ch chan struct{}
	if !n.draining {
		n.draining = true
		if n.inflight > 0 {
			ch = make(chan struct{})
			n.drainDone = ch
		}
	} else {
		ch = n.drainDone // may be nil: forwarded work already done
	}
	mgr := n.mgr
	n.mu.Unlock()
	if ch != nil {
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if mgr == nil {
		return nil
	}
	return mgr.Drain(ctx)
}

// Place implements campaign.Fabric. Each key goes to the first routable
// member clockwise from it on the ring: its owner, normally, and this
// node ("") when no remote member before it is routable. A job keeps one
// run in flight per routable member, self included, whichever members
// own its runs. Placement is where a result is, or will be, cached, so a
// slot never re-homes a run; local takeover happens only through
// RunShard's handback.
func (n *Node) Place(keys []string) ([]string, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	owners := make([]string, len(keys))
	for i, key := range keys {
		for _, id := range n.ring.Successors(key, len(n.ring.Peers())) {
			if id == n.cfg.Self {
				break
			}
			if n.routableLocked(id) {
				owners[i] = id
				break
			}
		}
	}
	slots := 1
	for id := range n.peers {
		if n.routableLocked(id) {
			slots++
		}
	}
	return owners, slots
}

// RunShard implements campaign.Fabric: it forwards one run to the peer
// Place chose. A peer that refuses it (down, draining, incompatible,
// unreachable, or disagreeing about the catalog) hands the run back, and
// it runs here through the attached manager's ServeRun: placement
// degrades, bytes never change. An owner that went down or incompatible
// mid-sweep hands its remaining runs back without a connection attempt
// each.
func (n *Node) RunShard(ctx context.Context, owner string, rs campaign.RunSpec, key string) (json.RawMessage, campaign.Tier, bool, error) {
	if n.routable(owner) {
		rec, peerTier, err := n.forward(ctx, owner, rs, key)
		switch {
		case err == nil:
			return rec, campaign.TierForward, peerTier.Hit(), nil
		case errors.As(err, new(*runError)):
			// The run executed on the peer and failed deterministically:
			// same bytes-in, same failure anywhere. Propagate, don't rerun.
			return nil, campaign.TierForward, peerTier.Hit(), err
		case ctx.Err() != nil:
			return nil, "", false, context.Canceled
		}
	}
	n.mu.Lock()
	n.stats.Handbacks++
	mgr := n.mgr
	n.mu.Unlock()
	rec, tier, err := mgr.ServeRun(ctx, rs, key)
	return rec, tier, tier.Hit(), err
}

// forward POSTs one run to a peer's /v1/fabric/run and returns the
// record, or the peer's deterministic failure as a *runError, plus the
// tier the peer served it from.
func (n *Node) forward(ctx context.Context, id string, rs campaign.RunSpec, key string) (json.RawMessage, campaign.Tier, error) {
	n.mu.Lock()
	p, ok := n.peers[id]
	n.mu.Unlock()
	if !ok {
		return nil, "", fmt.Errorf("fabric: unknown peer %q", id)
	}
	body, err := json.Marshal(ForwardRequest{
		Experiment: rs.Experiment, Seed: rs.Seed, Params: rs.Params, Key: key,
	})
	if err != nil {
		return nil, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.addr+"/v1/fabric/run", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderFingerprint, n.cfg.Fingerprint)
	req.Header.Set(HeaderFrom, n.cfg.Self)
	resp, err := n.client.Do(req)
	if err != nil {
		n.markDown(id)
		return nil, "", err
	}
	defer resp.Body.Close()
	n.mu.Lock()
	n.stats.ForwardedOut++
	n.mu.Unlock()
	switch resp.StatusCode {
	case http.StatusOK:
		rec, err := io.ReadAll(resp.Body)
		if err != nil {
			n.markDown(id)
			return nil, "", err
		}
		n.markUp(id)
		return rec, campaign.Tier(resp.Header.Get("X-Cache")), nil
	case http.StatusUnprocessableEntity:
		// The run failed but the peer is alive and serving: reset its
		// backoff along with the error report.
		n.markUp(id)
		var e struct {
			Error string `json:"error"`
		}
		if derr := json.NewDecoder(resp.Body).Decode(&e); derr != nil || e.Error == "" {
			e.Error = "peer reported a run failure"
		}
		return nil, campaign.Tier(resp.Header.Get("X-Cache")), &runError{msg: e.Error}
	case http.StatusServiceUnavailable:
		// Peer is draining: it hands the shard back to the ring.
		n.markDown(id)
		return nil, "", fmt.Errorf("fabric: peer %s is draining", id)
	case http.StatusConflict:
		n.markIncompatible(id)
		return nil, "", fmt.Errorf("fabric: peer %s rejected the forward (catalog mismatch)", id)
	default:
		n.markDown(id)
		return nil, "", fmt.Errorf("fabric: peer %s returned %d", id, resp.StatusCode)
	}
}
