package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/fabric"
	"repro/internal/registry"
	"repro/internal/runner"
	"repro/internal/store"
)

// fleet-mix: a closed loop of fleetClients clients against a 3-node
// voltbootd fleet in this process, built from the public constructors
// with default settings and served on loopback HTTP. One request is
// POST /v1/jobs with wait:true, then GET /v1/jobs/{id}/result.
const (
	fleetNodes   = 3
	fleetClients = 2

	// warm requests are 4-run sweeps over a population of warm keys
	// that every setup computes and then touches once after the
	// restart, so they are served from memory or forwarded to their
	// owner's memory.
	warmKeys      = 128
	warmRuns      = 4
	warmCampaigns = warmKeys / warmRuns

	// disk and compute requests each touch a key exactly once, so the
	// populations are sized from the window: this many keys per second
	// of it, about 1.75 times the highest rate either class reached on a
	// 2-vCPU host. A run that still exhausts one ends its window early.
	diskPerSecond    = 600
	computePerSecond = 30

	// popSweep is the run count of one population sweep.
	popSweep = 64

	// calibEvery is how often the load pauses for a calibration kernel
	// run (calib.go); each request is normalized by the runs around it.
	calibEvery = 500 * time.Millisecond
)

const (
	classWarm = iota
	classDisk
	classCompute
)

var fleetClassNames = [3]string{"warm", "disk", "compute"}

// fleetPattern is the request mix: of every 200 requests, 179 warm,
// 20 disk and 1 compute. Compute requests are rare because each needs a
// reference body a standalone node simulates during setup, and at half
// a percent they stay clear of the p99 reported as op_tail_ms.
var fleetPattern = func() [200]int {
	var p [200]int
	for k := range p {
		switch {
		case k == 197:
			p[k] = classCompute
		case k%10 == 3:
			p[k] = classDisk
		default:
			p[k] = classWarm
		}
	}
	return p
}()

// popExperiments are the population's cheap, seed-keyed experiments:
// warm and disk requests measure the serving path, not the simulator.
var popExperiments = []string{"table2", "table3", "figure6"}

// fleetReq is one campaign a client may submit, with the body a
// standalone node computed for it during setup.
type fleetReq struct {
	class int
	runs  []campaign.RunSpec
	ref   []byte
}

type fleetPlan struct {
	warm, disk, compute []*fleetReq
}

func newFleetPlan(seed uint64, window time.Duration) *fleetPlan {
	p := &fleetPlan{}
	spec := func(label string, i int, exp string) campaign.RunSpec {
		return campaign.RunSpec{Experiment: exp, Seed: runner.SeedFor(seed, "perfbench/fleet-mix/"+label, i)}
	}
	for c := 0; c < warmCampaigns; c++ {
		r := &fleetReq{class: classWarm}
		for k := 0; k < warmRuns; k++ {
			i := c*warmRuns + k
			r.runs = append(r.runs, spec("warm", i, popExperiments[i%len(popExperiments)]))
		}
		p.warm = append(p.warm, r)
	}
	secs := int(window.Seconds()) + 1
	for i := 0; i < diskPerSecond*secs; i++ {
		p.disk = append(p.disk, &fleetReq{class: classDisk,
			runs: []campaign.RunSpec{spec("disk", i, popExperiments[i%len(popExperiments)])}})
	}
	for i := 0; i < computePerSecond*secs; i++ {
		p.compute = append(p.compute, &fleetReq{class: classCompute,
			runs: []campaign.RunSpec{spec("compute", i, "ablationD-imprint")}})
	}
	return p
}

func (p *fleetPlan) all() []*fleetReq {
	return append(append(append([]*fleetReq(nil), p.warm...), p.disk...), p.compute...)
}

// fleetRecorder is the traced run's instrumentation: the registry and
// the fabric's HTTP client are wrapped, and record only while active.
// Tracing alternates on and off each second of the window, and the
// latency difference between the halves is the tracing overhead.
type fleetRecorder struct {
	tr    *tracer
	t0    atomic.Int64 // window start, unix ns; 0 = not measuring
	mu    sync.Mutex
	runNs int64
	runs  int
	fwdNs int64
	fwds  int
}

func (r *fleetRecorder) active() bool {
	t0 := r.t0.Load()
	return t0 != 0 && (time.Now().UnixNano()-t0)/int64(time.Second)%2 == 1
}

// record adds a server-side span; the benchmark cannot tell which request
// caused it, so it belongs to no op.
func (r *fleetRecorder) record(name string, start time.Time) {
	d := time.Since(start)
	r.tr.add(name, start, d)
	r.mu.Lock()
	if name == "registry.run" {
		r.runNs += d.Nanoseconds()
		r.runs++
	} else {
		r.fwdNs += d.Nanoseconds()
		r.fwds++
	}
	r.mu.Unlock()
}

// tracedRegistry is registry.Default with every Run timed. Fingerprint
// hashes names and schemas only, so it matches the plain catalog.
func (r *fleetRecorder) tracedRegistry() *registry.Registry {
	var exps []*registry.Experiment
	for _, e := range registry.Default().Experiments() {
		e2 := *e
		run := e.Run
		e2.Run = func(ctx context.Context, req registry.Request) (*registry.Result, error) {
			if !r.active() {
				return run(ctx, req)
			}
			start := time.Now()
			res, err := run(ctx, req)
			r.record("registry.run", start)
			return res, err
		}
		exps = append(exps, &e2)
	}
	return registry.New(exps...)
}

// timedTransport times each fabric forward from request to the end of
// its response body.
type timedTransport struct {
	base http.RoundTripper
	rec  *fleetRecorder
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.active() {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.record("fabric.forward", start)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.rec.record("fabric.forward", start) }}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// fleetNode is one voltbootd node: store, fabric node, campaign
// manager and HTTP server.
type fleetNode struct {
	url   string
	st    *store.Store
	node  *fabric.Node
	mgr   *campaign.Manager
	srv   *http.Server
	serve chan error
}

type fleet struct {
	nodes  []*fleetNode
	openNs []int64 // store.Open time per node
}

// startFleet opens one node per directory on loopback ports. rec, when
// non-nil, instruments the registry and the fabric client.
func startFleet(dirs []string, rec *fleetRecorder) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, len(dirs))
	ids := make([]string, len(dirs))
	for i := range dirs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns)
			return nil, err
		}
		lns[i] = ln
		ids[i] = string(rune('a' + i))
	}
	for i, dir := range dirs {
		t0 := time.Now()
		st, err := store.Open(store.Options{Dir: dir})
		f.openNs = append(f.openNs, time.Since(t0).Nanoseconds())
		if err != nil {
			closeAll(lns[i:])
			_ = f.stop() // already failing; the open error is the one to report
			return nil, err
		}
		reg := registry.Default()
		var client *http.Client
		if rec != nil {
			reg = rec.tracedRegistry()
			client = &http.Client{Transport: &timedTransport{base: http.DefaultTransport, rec: rec}}
		}
		var peers []fabric.Peer
		for j, ln := range lns {
			if j != i {
				peers = append(peers, fabric.Peer{ID: ids[j], Addr: "http://" + ln.Addr().String()})
			}
		}
		node, err := fabric.New(fabric.Config{Self: ids[i], Peers: peers, Fingerprint: reg.Fingerprint(), Client: client})
		if err != nil {
			_ = st.Close()
			closeAll(lns[i:])
			_ = f.stop() // already failing; the fabric error is the one to report
			return nil, err
		}
		mgr := campaign.New(campaign.Config{Registry: reg, Store: st, Sweep: node})
		node.Attach(mgr)
		n := &fleetNode{url: "http://" + lns[i].Addr().String(), st: st, node: node, mgr: mgr,
			srv: &http.Server{Handler: api.New(mgr, reg, node)}, serve: make(chan error, 1)}
		go func(ln net.Listener) { n.serve <- n.srv.Serve(ln) }(lns[i])
		f.nodes = append(f.nodes, n)
	}
	for _, n := range f.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := n.node.Refresh(ctx)
		cancel()
		if err != nil {
			_ = f.stop() // already failing; the probe error is the one to report
			return nil, err
		}
	}
	return f, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			_ = ln.Close() // never served; nothing to report
		}
	}
}

// stop drains every node (fabric gate, then its queue), closes its
// server and its store, and waits for each server goroutine. Once every
// node has drained no request is in flight, so the servers close
// outright: a graceful Shutdown would wait seconds for connections the
// fabric's transports dialed but never used.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var errs []error
	for _, n := range f.nodes {
		errs = append(errs, n.node.Drain(ctx))
	}
	for _, n := range f.nodes {
		errs = append(errs, n.srv.Close())
		if err := <-n.serve; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		errs = append(errs, n.st.Close())
	}
	f.nodes = nil
	return errors.Join(errs...)
}

type submitRun struct {
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
}

// submit POSTs a campaign with wait:true and returns its final status.
func submit(ctx context.Context, c *http.Client, url string, runs []campaign.RunSpec) (campaign.JobStatus, error) {
	var st campaign.JobStatus
	body := struct {
		Wait bool        `json:"wait"`
		Runs []submitRun `json:"runs"`
	}{Wait: true}
	for _, r := range runs {
		body.Runs = append(body.Runs, submitRun{Experiment: r.Experiment, Seed: r.Seed})
	}
	b, err := json.Marshal(body)
	if err != nil {
		return st, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("POST /v1/jobs: %d %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	if st.State != campaign.StateDone {
		return st, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}

func fetchResult(ctx context.Context, c *http.Client, url, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET result: %d %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// standaloneBody runs a campaign on a standalone manager and returns
// the result body it would serve.
func standaloneBody(mgr *campaign.Manager, runs []campaign.RunSpec) ([]byte, error) {
	st, err := mgr.Submit(campaign.Spec{Runs: runs})
	if err != nil {
		return nil, err
	}
	for from := 0; ; {
		evs, watch, terminal, err := mgr.EventsSince(st.ID, from)
		if err != nil {
			return nil, err
		}
		from += len(evs)
		if terminal {
			break
		}
		<-watch
	}
	rb, err := mgr.Result(st.ID)
	return rb.Body, err
}

// parallel runs fn over items on fleetClients goroutines and returns
// the first error.
func parallel[T any](items []T, fn func(T) error) error {
	var next atomic.Int64
	errs := make([]error, fleetClients)
	var wg sync.WaitGroup
	for w := 0; w < fleetClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || errs[w] != nil {
					return
				}
				errs[w] = fn(items[i])
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setupFleet is one set-up of the fleet: reference bodies for this
// rep's share of the plan on a standalone node, a fresh fleet that
// computes the warm and disk populations, a restart over the same store
// directories, and one touch of every warm campaign.
func setupFleet(plan *fleetPlan, rep int, dir string, client *http.Client, rec *fleetRecorder) (*fleet, error) {
	if err := selfTest(); err != nil {
		return nil, err
	}
	standalone := campaign.New(campaign.Config{Registry: registry.Default()})
	var share []*fleetReq
	for i, r := range plan.all() {
		if i%setupReps == rep {
			share = append(share, r)
		}
	}
	err := parallel(share, func(r *fleetReq) error {
		body, err := standaloneBody(standalone, r.runs)
		r.ref = body
		return err
	})
	if derr := standalone.Drain(context.Background()); err == nil {
		err = derr
	}
	if err != nil {
		return nil, fmt.Errorf("standalone reference: %w", err)
	}

	var dirs []string
	for i := 0; i < fleetNodes; i++ {
		dirs = append(dirs, filepath.Join(dir, fmt.Sprint(rep), string(rune('a'+i))))
	}
	f, err := startFleet(dirs, nil)
	if err != nil {
		return nil, err
	}
	var pop []campaign.RunSpec
	for _, r := range append(append([]*fleetReq(nil), plan.warm...), plan.disk...) {
		pop = append(pop, r.runs...)
	}
	var sweeps [][]campaign.RunSpec
	for i := 0; i < len(pop); i += popSweep {
		sweeps = append(sweeps, pop[i:min(i+popSweep, len(pop))])
	}
	ctx := context.Background()
	var n atomic.Int64
	err = parallel(sweeps, func(runs []campaign.RunSpec) error {
		_, err := submit(ctx, client, f.nodes[int(n.Add(1))%fleetNodes].url, runs)
		return err
	})
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("population: %w", err)
	}

	if f, err = startFleet(dirs, rec); err != nil {
		return nil, err
	}
	err = parallel(plan.warm, func(r *fleetReq) error {
		_, err := submit(ctx, client, f.nodes[int(n.Add(1))%fleetNodes].url, r.runs)
		return err
	})
	if err != nil {
		_ = f.stop() // the set-up already failed; report that error
		return nil, fmt.Errorf("warm touch: %w", err)
	}
	return f, nil
}

// fleetSample is one measured request; status is kept only for the
// traced run's per-layer metrics.
type fleetSample struct {
	class  int
	start  time.Time
	lat    time.Duration
	traced bool
	status campaign.JobStatus
}

func runFleet(cfg config) (*result, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("fleet-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	plan := newFleetPlan(cfg.seed, cfg.window)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: fleetClients, MaxConnsPerHost: fleetClients}}
	defer client.CloseIdleConnections()
	var rec *fleetRecorder
	if cfg.traced {
		rec = &fleetRecorder{tr: newTracer()}
	}

	var setups []time.Duration
	var f *fleet
	before := calibrate()
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = cfg.start
		}
		nf, err := setupFleet(plan, rep, dir, client, rec)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		after := calibrate()
		setups = append(setups, normalize(d, before, after))
		before = after
		if rep < setupReps-1 {
			if err := nf.stop(); err != nil {
				return nil, err
			}
			// Collect the discarded fleet now, so its garbage does not
			// set the next set-up's peak RSS.
			runtime.GC()
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprint(rep))); err != nil {
				return nil, err
			}
			continue
		}
		f = nf
	}

	res, err := measureFleet(cfg, plan, f, client, rec, setups)
	if serr := f.stop(); err == nil {
		err = serr
	}
	return res, err
}

func measureFleet(cfg config, plan *fleetPlan, f *fleet, client *http.Client,
	rec *fleetRecorder, setups []time.Duration) (*result, error) {
	v := newVerifier(map[string]string{})
	var vmu sync.Mutex
	var seq, warmNext, diskNext, computeNext atomic.Int64
	var exhausted atomic.Bool
	samples := make([][]fleetSample, fleetClients)
	attempted := make([]int, fleetClients)

	storeBefore := storeStats(f)
	fabricBefore := fabricStats(f)
	gc0 := gcPauseNs()
	// Every calibEvery the calibrator takes the write lock, so the
	// kernel runs while no request is in flight; clients hold the read
	// lock per request. calStart and clog record when each kernel run
	// started and ended, which bounds the active intervals between them.
	var (
		pause    sync.RWMutex
		clog     calibLog
		calStart []time.Time
	)
	calib := func() {
		calStart = append(calStart, time.Now())
		c := calibrate()
		clog.add(time.Now(), c)
	}
	calib()
	t0 := time.Now()
	if rec != nil {
		rec.t0.Store(t0.UnixNano())
	}
	stop := make(chan struct{})
	calDone := make(chan struct{})
	go func() {
		defer close(calDone)
		tick := time.NewTicker(calibEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				pause.Lock()
				calib()
				pause.Unlock()
			}
		}
	}()
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(t0) < cfg.window && !exhausted.Load() {
				k := int(seq.Add(1)) - 1
				class := fleetPattern[k%len(fleetPattern)]
				var r *fleetReq
				switch class {
				case classWarm:
					r = plan.warm[int(warmNext.Add(1)-1)%len(plan.warm)]
				case classDisk:
					if i := int(diskNext.Add(1)) - 1; i < len(plan.disk) {
						r = plan.disk[i]
					}
				default:
					if i := int(computeNext.Add(1)) - 1; i < len(plan.compute) {
						r = plan.compute[i]
					}
				}
				if r == nil {
					exhausted.Store(true)
					return
				}
				url := f.nodes[k%fleetNodes].url
				pause.RLock()
				traced := rec != nil && rec.active()
				start := time.Now()
				st, err := submit(ctx, client, url, r.runs)
				var body []byte
				if err == nil {
					body, err = fetchResult(ctx, client, url, st.ID)
				}
				lat := time.Since(start)
				pause.RUnlock()
				attempted[c]++
				vmu.Lock()
				ok := err == nil || v.fail("%s request: %v", fleetClassNames[class], err)
				ok = ok && v.checkBody(fleetClassNames[class], body, r.ref) && checkTiers(v, r.class, st)
				vmu.Unlock()
				if ok {
					s := fleetSample{class: class, start: start, lat: lat, traced: traced}
					if rec != nil {
						s.status = st
					}
					samples[c] = append(samples[c], s)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-calDone
	elapsed := time.Since(t0)
	if rec != nil {
		rec.t0.Store(0)
	}
	calib()
	// busy is the calibrated time between kernel runs, when load ran.
	var busy time.Duration
	for j := 0; j+1 < len(clog.c); j++ {
		busy += normalize(calStart[j+1].Sub(clog.at[j]), clog.c[j], clog.c[j+1])
	}
	for _, ss := range samples {
		for i := range ss {
			before, after := clog.around(ss[i].start)
			ss[i].lat = normalize(ss[i].lat, before, after)
		}
	}
	gcPause := gcPauseNs() - gc0
	if exhausted.Load() {
		fmt.Fprintf(os.Stderr, "perfbench: fleet-mix: a key population ran out after %.1fs of the window\n", elapsed.Seconds())
	}
	for _, e := range v.errs {
		fmt.Fprintln(os.Stderr, "perfbench: verification failure:", e)
	}

	var all []fleetSample
	total := 0
	for c := range samples {
		all = append(all, samples[c]...)
		total += attempted[c]
	}
	res := &result{Attempted: total, Failed: v.failed, Correct: v.failed == 0}
	if rec == nil {
		var lats []time.Duration
		var class [3][]time.Duration
		for _, s := range all {
			lats = append(lats, s.lat)
			class[s.class] = append(class[s.class], s.lat)
		}
		m, err := endToEnd(setups, lats, class, busy, 0.99)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: fleet-mix: %d requests in %.1fs (warm %d, disk %d, compute %d)\n",
			len(lats), elapsed.Seconds(), len(class[0]), len(class[1]), len(class[2]))
		res.Metrics = m
		return res, nil
	}
	scale := float64(calibRef) / float64(median(clog.c))
	m, err := fleetLayers(all, f, rec, storeBefore, fabricBefore, scale)
	if err != nil {
		return nil, err
	}
	m["go.gc_pause_ms"] = metric{scale * float64(gcPause) / 1e6 / float64(len(all)), "ms"}
	// The share report: server-side spans cannot be tied to a request,
	// so the split is of mean times per request. Forwards and registry
	// runs (on any node, so they overlap) happen inside the job's run;
	// the rest of a request is HTTP and JSON on both ends.
	op := m["trace.op_ms"].Value
	share := func(name string) float64 { return 100 * m[name].Value / op }
	fmt.Fprintf(os.Stderr, "\nlayer-share report: fleet-mix (mean per request %.3f ms; tracing overhead %.1f%%)\n"+
		"  campaign queue wait %.1f%%, campaign run %.1f%% (inside it, summed over concurrent shards: fabric forwards %.1f%%, registry runs %.1f%%), other %.1f%%\n",
		op, m["trace.overhead_pct"].Value, share("campaign.queue_wait_ms"), share("campaign.run_ms"),
		share("fabric.forward_ms"), share("registry.run_ms"),
		100-share("campaign.queue_wait_ms")-share("campaign.run_ms"))
	if m, err = completeLayers(m); err != nil {
		return nil, err
	}
	if err := rec.tr.dump(filepath.Join(outDir, fmt.Sprintf("spans-fleet-mix-%d.json", cfg.seed))); err != nil {
		return nil, err
	}
	res.Metrics = m
	return res, nil
}

// checkTiers enforces each class's serving tier: warm and disk
// requests never simulate anything, compute requests always do.
func checkTiers(v *verifier, class int, st campaign.JobStatus) bool {
	for _, r := range st.Runs {
		switch {
		case class == classCompute && r.Cached:
			return v.fail("compute request %s: run %s served from %s", st.ID, r.Key, r.Tier)
		case class != classCompute && !r.Cached:
			return v.fail("%s request %s: run %s was simulated (tier %s)", fleetClassNames[class], st.ID, r.Key, r.Tier)
		case class == classWarm && r.Tier == campaign.TierDisk:
			return v.fail("warm request %s: run %s served from disk", st.ID, r.Key)
		}
	}
	return true
}

func storeStats(f *fleet) []store.Stats {
	var out []store.Stats
	for _, n := range f.nodes {
		out = append(out, n.st.Stats())
	}
	return out
}

func fabricStats(f *fleet) []fabric.NodeStats {
	var out []fabric.NodeStats
	for _, n := range f.nodes {
		out = append(out, n.node.Status().Stats)
	}
	return out
}

// fleetLayers computes fleet-mix's per-layer metrics, per request.
func fleetLayers(all []fleetSample, f *fleet, rec *fleetRecorder,
	storeBefore []store.Stats, fabricBefore []fabric.NodeStats, scale float64) (map[string]metric, error) {
	n := float64(len(all))
	ms := func(ns int64, per float64) float64 { return scale * float64(ns) / 1e6 / per }
	var queueNs, runNs int64
	tiers := map[campaign.Tier]int{}
	runs := 0
	var on, off []time.Duration
	for _, s := range all {
		st := s.status
		if st.Started != nil && st.Finished != nil {
			queueNs += st.Started.Sub(st.Created).Nanoseconds()
			runNs += st.Finished.Sub(*st.Started).Nanoseconds()
		}
		for _, r := range st.Runs {
			tiers[r.Tier]++
			runs++
		}
		if s.traced {
			on = append(on, s.lat)
		} else {
			off = append(off, s.lat)
		}
	}
	m := map[string]metric{
		"campaign.queue_wait_ms": {ms(queueNs, n), "ms"},
		"campaign.run_ms":        {ms(runNs, n), "ms"},
		"campaign.tier_mem":      {float64(tiers[campaign.TierMem]) / n, "count"},
		"campaign.tier_disk":     {float64(tiers[campaign.TierDisk]) / n, "count"},
		"campaign.tier_miss":     {float64(tiers[campaign.TierMiss]) / n, "count"},
		"campaign.tier_forward":  {float64(tiers[campaign.TierForward]) / n, "count"},
		"campaign.mem_hit_ratio": {float64(tiers[campaign.TierMem]) / float64(runs), "ratio"},
	}
	if len(on) == 0 || len(off) == 0 {
		return nil, errors.New("the window is too short to alternate traced and untraced seconds")
	}
	var opNs int64
	for _, l := range on {
		opNs += l.Nanoseconds()
	}
	ons := float64(len(on))
	rec.mu.Lock()
	m["registry.run_ms"] = metric{ms(rec.runNs, ons), "ms"}
	m["registry.run_count"] = metric{float64(rec.runs) / ons, "count"}
	m["fabric.forward_ms"] = metric{ms(rec.fwdNs, ons), "ms"}
	m["fabric.forward_count"] = metric{float64(rec.fwds) / ons, "count"}
	rec.mu.Unlock()
	m["trace.op_ms"] = metric{float64(opNs) / 1e6 / ons, "ms"}
	p50on, p50off := percentile(on, 0.5), percentile(off, 0.5)
	m["trace.overhead_pct"] = metric{100 * (p50on.Seconds() - p50off.Seconds()) / p50off.Seconds(), "%"}

	var steals, handbacks uint64
	for i, fs := range fabricStats(f) {
		steals += fs.Steals - fabricBefore[i].Steals
		handbacks += fs.Handbacks - fabricBefore[i].Handbacks
	}
	m["fabric.steals"] = metric{float64(steals) / n, "count"}
	m["fabric.handbacks"] = metric{float64(handbacks) / n, "count"}
	var hot, disk, miss, puts uint64
	for i, ss := range storeStats(f) {
		hot += ss.HotHits - storeBefore[i].HotHits
		disk += ss.DiskHits - storeBefore[i].DiskHits
		miss += ss.Misses - storeBefore[i].Misses
		puts += ss.Puts - storeBefore[i].Puts
	}
	m["store.hot_hits"] = metric{float64(hot) / n, "count"}
	m["store.disk_hits"] = metric{float64(disk) / n, "count"}
	m["store.misses"] = metric{float64(miss) / n, "count"}
	m["store.puts"] = metric{float64(puts) / n, "count"}
	var openNs int64
	for _, ns := range f.openNs {
		openNs += ns
	}
	m["store.open_ms"] = metric{ms(openNs, float64(len(f.openNs))), "ms"}
	return m, nil
}
