// Package campaign is the job subsystem that serves attack-campaign
// sweeps: submit a set of experiment runs, watch their progress, fetch a
// deterministic result body.
//
// Four properties define the design:
//
//   - *Bounded intake.* Submissions pass through a fixed-depth queue into
//     a fixed-size worker pool. A full queue rejects immediately
//     (ErrQueueFull → HTTP 429), never blocks the submitter — backpressure
//     is the caller's signal to go away, not an invitation to pile up.
//
//   - *Content-addressed results.* Every run is keyed by the SHA-256 of
//     (experiment name, seed, canonicalized params). The simulator is
//     deterministic by construction — same key, same bits, any worker
//     count, any node — so a completed run's record is cached and served
//     byte-identically to every later submission of the same key, without
//     re-simulating. The cache is tiered: a bounded in-memory map in
//     front of an optional crash-safe disk store (internal/store), with
//     single-flight coalescing preserved across the whole
//     memory-hit → disk-hit → compute promotion path. In-flight keys
//     coalesce: concurrent identical submissions share one execution,
//     and the followers count as cache hits.
//
//   - *One dispatch loop.* Every job runs down the same path. Its runs
//     are placed first: all on this node without a fabric, on their
//     ring owners with one (internal/fabric places and forwards). Then
//     slots take them in index order from one shared cursor, one slot
//     without a fabric and one per routable ring member with one. The
//     first real failure cancels the runs not yet started, every run
//     reports exactly once, and the records reassemble index-ordered, so
//     the result body is byte-identical to a single-node run.
//
//   - *Cooperative cancellation.* Each job owns a context that Cancel
//     fires. The context threads through registry.Experiment.Run into
//     runner.MapCtx, so cancelling a running grid experiment frees its
//     worker at the next trial boundary instead of after the whole sweep.
//
// Job lifecycle: queued → running → done | failed | cancelled. Every
// transition (and every per-run completion) appends an Event; subscribers
// replay the history and then follow live, which is what the HTTP layer
// streams as NDJSON.
package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/registry"
	"repro/internal/store"
)

// State is a job lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors.
var (
	ErrQueueFull   = errors.New("campaign: submission queue full")
	ErrDraining    = errors.New("campaign: manager is draining")
	ErrNotFound    = errors.New("campaign: no such job")
	ErrNotFinished = errors.New("campaign: job has not finished")
)

// RunSpec is one experiment run inside a campaign. Params may be partial
// and un-normalized; Submit resolves them against the registry schema.
type RunSpec struct {
	Experiment string            `json:"experiment"`
	Seed       uint64            `json:"seed"`
	Params     map[string]string `json:"params,omitempty"`
}

// Spec is a campaign: an ordered list of runs. One dispatch loop runs
// them, on this node or, through a Fabric, on their ring owners; either
// way the result body lists the run records in submission order.
type Spec struct {
	Runs []RunSpec `json:"runs"`
}

// RunStatus is the externally visible state of one run of a job.
type RunStatus struct {
	Experiment string `json:"experiment"`
	Key        string `json:"key"`
	State      State  `json:"state"`
	// Cached is true when the run's record was served from a cache
	// layer (memory, disk, in-flight coalescing, or a peer's cache)
	// rather than simulated for this job.
	Cached bool `json:"cached"`
	// Tier is the cache layer that served the run (hit-mem, hit-disk,
	// miss, forward); empty until the run starts resolving.
	Tier  Tier   `json:"tier,omitempty"`
	Error string `json:"error,omitempty"`
}

// Progress is the live counter set of a job.
type Progress struct {
	Done      int `json:"done"`
	Total     int `json:"total"`
	CacheHits int `json:"cache_hits"`
}

// JobStatus is a point-in-time snapshot of a job.
type JobStatus struct {
	ID       string   `json:"id"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	// Cached is true when the whole job completed without simulating
	// anything: every run was served from a cache layer.
	Cached bool `json:"cached"`
	// CacheTier is the aggregate serving tier of a done job — the
	// "worst" tier across its runs (miss > forward > hit-disk >
	// hit-mem). Empty until the job is done.
	CacheTier Tier        `json:"cache_tier,omitempty"`
	Error     string      `json:"error,omitempty"`
	Runs      []RunStatus `json:"runs"`
	Created   time.Time   `json:"created"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
}

// Event is one entry of a job's progress stream.
type Event struct {
	Seq   int    `json:"seq"`
	Job   string `json:"job"`
	State State  `json:"state"`
	// Run/RunState/Cached/Tier describe a per-run transition; empty for
	// pure job-state events.
	Run      string   `json:"run,omitempty"`
	RunState State    `json:"run_state,omitempty"`
	Cached   bool     `json:"cached,omitempty"`
	Tier     Tier     `json:"tier,omitempty"`
	Progress Progress `json:"progress"`
	Error    string   `json:"error,omitempty"`
}

// ResultBody is a finished job's deterministic result plus the metadata
// the HTTP layer serves it with. Body and ETag are computed exactly
// once, when the job finishes — a cache hit re-serves the stored bytes
// without re-marshaling anything.
type ResultBody struct {
	Body []byte
	// Tier is the aggregate cache tier (the X-Cache value).
	Tier Tier
	// ETag is the strong entity tag: the quoted hex SHA-256 of Body.
	ETag string
}

// Fabric places a job's runs across a fleet and forwards the runs it
// places on peers; internal/fabric.Node implements it.
type Fabric interface {
	// Place returns each key's executor, "" for this node, and how many
	// of the job's runs the dispatch loop keeps in flight.
	Place(keys []string) (owners []string, slots int)
	// RunShard runs one resolved run on the peer Place chose, or through
	// this node's ServeRun when that peer refuses it. tier is the layer
	// that served the run as this node sees it (TierForward for a peer's
	// answer); cached is true when nothing was simulated anywhere.
	RunShard(ctx context.Context, owner string, rs RunSpec, key string) (rec json.RawMessage, tier Tier, cached bool, err error)
}

// job is the internal job record. All mutable fields are guarded by the
// manager's mutex.
type job struct {
	id     string
	spec   []RunSpec // params resolved to canonical form
	keys   []string  // cache key per run
	ctx    context.Context
	cancel context.CancelFunc

	state    State
	runs     []RunStatus
	progress Progress
	events   []Event
	watch    chan struct{} // closed and replaced on events while watched
	watched  bool          // a caller holds watch and may be blocked on it
	result   []byte
	etag     string
	tier     Tier
	cached   bool
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
}

// Config configures a Manager.
type Config struct {
	// Registry resolves and runs experiments. Required.
	Registry *registry.Registry
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the submission queue (default 64). Submissions
	// beyond Workers in-flight + QueueDepth queued fail with ErrQueueFull.
	QueueDepth int
	// Store is the optional disk layer behind the in-memory result
	// cache: lookups go memory hit → disk hit → compute, completed
	// results persist across restarts.
	Store *store.Store
	// Sweep optionally places jobs' runs on their fabric peers and
	// forwards them there (internal/fabric.Node implements it). Nil
	// runs every run on this node, one at a time.
	Sweep Fabric
	// MemEntries bounds the in-memory result cache (default 65536
	// completed entries); the disk store backs whatever falls out.
	MemEntries int
	// JobRetention bounds how many finished jobs stay queryable
	// (default 1024), and with it the runs they hold: at most
	// JobRetention × 64. Beyond either cap the oldest-finished jobs are
	// forgotten — their status and result endpoints return not-found —
	// so a long-running daemon's job table cannot grow without bound.
	// Results themselves outlive the job record in the result cache.
	JobRetention int
}

// memKey is one completed in-memory cache entry in completion order,
// for FIFO trimming of the memory tier.
type memKey struct {
	key string
	e   *cacheEntry
}

// Manager owns the queue, the worker pool, the dispatch loop, the job
// table and the tiered result cache.
type Manager struct {
	reg    *registry.Registry
	store  *store.Store
	fabric Fabric
	queue  chan *job
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	done     []string // terminal job ids in completion order, for retention trimming
	doneRuns int      // runs held by the jobs in done
	cache    map[string]*cacheEntry
	fifo     []memKey
	memCap   int
	jobCap   int
	nextID   int
	draining bool
}

// New starts a Manager with its worker pool.
func New(cfg Config) *Manager {
	if cfg.Registry == nil {
		panic("campaign: Config.Registry is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	memCap := cfg.MemEntries
	if memCap <= 0 {
		memCap = 65536
	}
	jobCap := cfg.JobRetention
	if jobCap <= 0 {
		jobCap = 1024
	}
	m := &Manager{
		reg:    cfg.Registry,
		store:  cfg.Store,
		fabric: cfg.Sweep,
		queue:  make(chan *job, depth),
		jobs:   make(map[string]*job),
		cache:  make(map[string]*cacheEntry),
		memCap: memCap,
		jobCap: jobCap,
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates a campaign against the registry, enqueues it, and
// returns the queued job's status. It never blocks: a full queue returns
// ErrQueueFull, a draining manager ErrDraining.
func (m *Manager) Submit(spec Spec) (JobStatus, error) {
	if len(spec.Runs) == 0 {
		return JobStatus{}, errors.New("campaign: empty campaign")
	}
	resolved := make([]RunSpec, len(spec.Runs))
	keys := make([]string, len(spec.Runs))
	for i, rs := range spec.Runs {
		r, key, err := m.ResolveRun(rs)
		if err != nil {
			return JobStatus{}, err
		}
		resolved[i], keys[i] = r, key
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		spec:    resolved,
		keys:    keys,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		watch:   make(chan struct{}),
		created: time.Now(),
	}
	j.runs = make([]RunStatus, len(resolved))
	for i := range resolved {
		j.runs[i] = RunStatus{Experiment: resolved[i].Experiment, Key: keys[i], State: StateQueued}
	}
	j.progress = Progress{Total: len(resolved)}
	// queued + running + terminal + one per run covers every lifecycle.
	j.events = make([]Event, 0, len(resolved)+3)

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		cancel()
		return JobStatus{}, ErrDraining
	}
	m.nextID++
	j.id = "job-" + strconv.Itoa(m.nextID)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	// Fully-warm fast path: when every run is already a completed success
	// in the memory tier, the job finishes inside this critical section —
	// no queue slot, no worker handoff, no watcher round trip. That saves
	// two goroutine wakeups per cached campaign, which on a small host is
	// a large slice of the serving latency; it also means repeated warm
	// campaigns can never be bounced by a backlogged queue.
	if records := m.warmRecordsLocked(j.keys); records != nil {
		m.emitLocked(j, Event{State: StateQueued})
		m.startLocked(j)
		for i := range j.runs {
			m.setRunStateLocked(j, i, StateDone, true, TierMem, nil)
		}
		m.finishLocked(j, records)
		st := j.statusLocked()
		m.mu.Unlock()
		return st, nil
	}
	select {
	case m.queue <- j:
	default:
		delete(m.jobs, j.id)
		m.order = m.order[:len(m.order)-1]
		m.mu.Unlock()
		cancel()
		return JobStatus{}, ErrQueueFull
	}
	m.emitLocked(j, Event{State: StateQueued})
	st := j.statusLocked()
	m.mu.Unlock()
	return st, nil
}

// warmRecordsLocked returns every run's record when all keys are ready
// successes in the memory tier, nil otherwise. Pending leaders, aborted
// entries, and cached deterministic failures all disqualify — those
// paths carry waiting or error semantics that belong to the workers.
func (m *Manager) warmRecordsLocked(keys []string) []json.RawMessage {
	records := make([]json.RawMessage, len(keys))
	for i, k := range keys {
		e := m.cache[k]
		if e == nil {
			return nil
		}
		select {
		case <-e.done:
		default:
			return nil // a leader is still computing this key
		}
		if e.aborted || e.err != nil {
			return nil
		}
		records[i] = e.rec
	}
	return records
}

// Get returns a job's status snapshot.
func (m *Manager) Get(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return j.statusLocked(), nil
}

// List returns the status of every retained job in submission order.
// Finished jobs beyond the JobRetention cap have been forgotten and no
// longer appear.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j.statusLocked())
		}
	}
	return out
}

// Cancel fires a job's context. A queued job is finalized as cancelled
// immediately; a running job transitions when its experiment observes the
// context (grid experiments at the next trial dispatch). Cancelling a
// terminal job is a no-op.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return JobStatus{}, ErrNotFound
	}
	j.cancel()
	if j.state == StateQueued {
		m.finalizeLocked(j, StateCancelled, context.Canceled)
	}
	st := j.statusLocked()
	m.mu.Unlock()
	return st, nil
}

// Result returns a finished job's deterministic result body with its
// serving metadata. ErrNotFinished while the job is queued/running or
// cancelled; the job's own error if it failed.
func (m *Manager) Result(id string) (ResultBody, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return ResultBody{}, ErrNotFound
	}
	switch j.state {
	case StateDone:
		return ResultBody{Body: j.result, Tier: j.tier, ETag: j.etag}, nil
	case StateFailed:
		return ResultBody{}, j.err
	default:
		return ResultBody{}, ErrNotFinished
	}
}

// EventsSince returns the events of a job from sequence number from
// onwards, a channel that closes when a further event arrives, and
// whether the job is terminal. Callers loop: drain, emit, wait on the
// channel (or their own context), repeat until terminal with no backlog.
func (m *Manager) EventsSince(id string, from int) ([]Event, <-chan struct{}, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, false, ErrNotFound
	}
	var evs []Event
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	j.watched = true // the caller may block on the channel we hand out
	return evs, j.watch, j.state.Terminal(), nil
}

// Drain stops intake (new Submits fail with ErrDraining), lets the
// workers finish every queued and running job, and returns when the pool
// is idle or ctx expires. Fabric deployments drain through
// fabric.Node.Drain, which gates forwarded-in work first and then calls
// this.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker executes jobs from the queue until it closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob drives one job through its lifecycle.
func (m *Manager) runJob(j *job) {
	m.mu.Lock()
	if j.state.Terminal() { // cancelled while queued
		m.mu.Unlock()
		return
	}
	if j.ctx.Err() != nil {
		m.finalizeLocked(j, StateCancelled, j.ctx.Err())
		m.mu.Unlock()
		return
	}
	m.startLocked(j)
	m.mu.Unlock()

	records := make([]json.RawMessage, len(j.spec))
	err := m.dispatch(j, records)
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case err == nil:
		m.finishLocked(j, records)
	case j.ctx.Err() != nil || errors.Is(err, context.Canceled):
		m.finalizeLocked(j, StateCancelled, context.Canceled)
	default:
		m.finalizeLocked(j, StateFailed, err)
	}
}

// dispatch runs a job's runs, each on the executor Place chose for it
// (this node without a fabric). Slots take the runs in index order from
// one shared cursor. The first real failure cancels the runs not yet
// started, and every run reports exactly once: done, failed or
// cancelled. It returns the first failure, else the job context's error.
func (m *Manager) dispatch(j *job, records []json.RawMessage) error {
	ctx, cancel := context.WithCancel(j.ctx)
	defer cancel()
	owners, slots := make([]string, len(records)), 1
	if m.fabric != nil {
		owners, slots = m.fabric.Place(j.keys)
	}
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	slot := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(records) {
				return
			}
			if ctx.Err() != nil {
				m.setRunState(j, i, StateCancelled, false, "", context.Canceled)
				continue
			}
			m.setRunState(j, i, StateRunning, false, "", nil)
			rec, tier, cached, err := m.serve(ctx, owners[i], j.spec[i], j.keys[i])
			switch {
			case err == nil:
				records[i] = rec
				m.setRunState(j, i, StateDone, cached, tier, nil)
			case errors.Is(err, context.Canceled):
				m.setRunState(j, i, StateCancelled, false, "", err)
			default:
				m.setRunState(j, i, StateFailed, cached, tier, err)
				errOnce.Do(func() {
					firstErr = fmt.Errorf("campaign: run %q: %w", j.spec[i].Experiment, err)
				})
				cancel()
			}
		}
	}
	// The worker's own goroutine is one of the slots.
	for s := 1; s < slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot()
		}()
	}
	slot()
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return j.ctx.Err()
}

// serve runs one run on its placed executor: this node's cache
// hierarchy for "", else the fabric's forward.
func (m *Manager) serve(ctx context.Context, owner string, rs RunSpec, key string) (json.RawMessage, Tier, bool, error) {
	if owner != "" {
		return m.fabric.RunShard(ctx, owner, rs, key)
	}
	rec, tier, err := m.ServeRun(ctx, rs, key)
	return rec, tier, tier.Hit(), err
}

// startLocked moves a job from queued to running.
func (m *Manager) startLocked(j *job) {
	j.state = StateRunning
	j.started = time.Now()
	m.emitLocked(j, Event{State: StateRunning})
}

// finishLocked completes a job whose every run is done: the body lists
// the records in submission order, whichever tier or peer produced each
// one, and the job takes the body's strong ETag and the runs' aggregate
// tier.
func (m *Manager) finishLocked(j *job, records []json.RawMessage) {
	j.result = assembleBody(records)
	sum := sha256.Sum256(j.result)
	j.etag = `"` + hex.EncodeToString(sum[:]) + `"`
	j.tier = aggregateTier(j.runs)
	j.cached = j.tier != TierMiss
	m.finalizeLocked(j, StateDone, nil)
}

// aggregateTier folds per-run tiers into the job-level X-Cache value:
// the worst tier wins (miss > forward > hit-disk > hit-mem).
func aggregateTier(runs []RunStatus) Tier {
	rank := func(t Tier) int {
		switch t {
		case TierMiss:
			return 3
		case TierForward:
			return 2
		case TierDisk:
			return 1
		default:
			return 0
		}
	}
	agg := TierMem
	for i := range runs {
		t := runs[i].Tier
		if !runs[i].Cached {
			t = TierMiss
		}
		if rank(t) > rank(agg) {
			agg = t
		}
	}
	return agg
}

// setRunState records a per-run transition and emits its event.
func (m *Manager) setRunState(j *job, i int, s State, cached bool, tier Tier, err error) {
	m.mu.Lock()
	m.setRunStateLocked(j, i, s, cached, tier, err)
	m.mu.Unlock()
}

func (m *Manager) setRunStateLocked(j *job, i int, s State, cached bool, tier Tier, err error) {
	j.runs[i].State = s
	j.runs[i].Cached = cached
	j.runs[i].Tier = tier
	if err != nil {
		j.runs[i].Error = err.Error()
	}
	if s == StateDone {
		j.progress.Done++
		if cached {
			j.progress.CacheHits++
		}
	}
	ev := Event{Run: j.spec[i].Experiment, RunState: s, Cached: cached, Tier: tier, State: j.state}
	if err != nil {
		ev.Error = err.Error()
	}
	m.emitLocked(j, ev)
}

// finalizeLocked moves a job to a terminal state exactly once.
func (m *Manager) finalizeLocked(j *job, s State, err error) {
	if j.state.Terminal() {
		return
	}
	j.state = s
	j.err = err
	j.finished = time.Now()
	j.cancel() // release the context's resources in every terminal path
	ev := Event{State: s, Cached: j.cached, Tier: j.tier}
	if err != nil {
		ev.Error = err.Error()
	}
	m.emitLocked(j, ev)
	m.retireLocked(j)
}

// retainedRunsPerJob sets the bound on the runs the retained finished
// jobs hold together: JobRetention × 64. A job holds about 1 KiB per run
// (its per-run statuses, events and result body), and a 1 MiB body can
// name some 47,000 runs, so a count of jobs alone does not bound the
// table. The fleet-mix benchmark's largest jobs are 64-run sweeps, so
// there the job count binds first.
const retainedRunsPerJob = 64

// retireLocked records a terminal job for retention and forgets the
// oldest finished jobs beyond the cap, or while the finished jobs kept
// hold more than JobRetention × retainedRunsPerJob runs, so the job
// table — result bodies, event logs and all — stays bounded no matter
// how long the daemon runs. The job that just finished is never
// forgotten.
func (m *Manager) retireLocked(j *job) {
	// The resolved spec (with its canonical params maps) and key list
	// only matter while the job executes; RunStatus carries what status
	// queries need. Dropping them here keeps retained jobs light.
	j.spec, j.keys = nil, nil
	m.done = append(m.done, j.id)
	m.doneRuns += len(j.runs)
	for len(m.done) > m.jobCap || len(m.done) > 1 && m.doneRuns > m.jobCap*retainedRunsPerJob {
		m.doneRuns -= len(m.jobs[m.done[0]].runs)
		delete(m.jobs, m.done[0])
		m.done = m.done[1:]
	}
	// m.order keeps ids of forgotten jobs until it is mostly tombstones,
	// then is rebuilt; List skips ids no longer in the table either way.
	if len(m.order) > 2*len(m.jobs)+64 {
		live := make([]string, 0, len(m.jobs))
		for _, id := range m.order {
			if _, ok := m.jobs[id]; ok {
				live = append(live, id)
			}
		}
		m.order = live
	}
}

// emitLocked appends an event (stamping seq, job id and live progress)
// and wakes every watcher. The watch channel is only cycled while some
// caller actually holds it (EventsSince sets watched): waking nobody is
// free, and a watcher always drains the backlog before blocking again,
// so no event can be missed.
func (m *Manager) emitLocked(j *job, ev Event) {
	ev.Seq = len(j.events)
	ev.Job = j.id
	ev.Progress = j.progress
	j.events = append(j.events, ev)
	if j.watched {
		close(j.watch)
		j.watch = make(chan struct{})
		j.watched = false
	}
}

// statusLocked snapshots a job.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Progress:  j.progress,
		Cached:    j.cached,
		CacheTier: j.tier,
		Runs:      append([]RunStatus(nil), j.runs...),
		Created:   j.created,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}
