package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/registry"
)

// simClass is one op class of a simulator workload: a catalog
// experiment, its parameter overrides, the traced replica that splits
// the same computation into spans around each layer call, and an
// optional check of the output beyond its digest.
type simClass struct {
	exp    string
	params map[string]string
	traced func(op scope, seed uint64) (*registry.Result, error)
	check  func(*registry.Result) error
}

// simWorkload is a closed loop with one client that runs its classes
// in rotation, one rotation per seed in turn.
type simWorkload struct {
	name    string
	classes [3]simClass
	// rotation lists the class of each op of one rotation. The short
	// classes appear more than once so their medians rest on as many
	// samples as the long one's, and the pooled percentiles stay clear
	// of the boundaries between class clusters.
	rotation []int
	seeds    func(seed uint64) []uint64
	// warm is the class each setup runs once, at the first seed, so
	// lazy runtime state is in place before timing starts.
	warm int
	// tail is the pooled percentile reported as op_tail_ms: about ten
	// samples beyond it in a run, inside the slowest class's cluster.
	tail float64
}

type boundClass struct {
	simClass
	e      *registry.Experiment
	params map[string]string
}

// simSetup is what a simulator workload builds before its first timed
// op: the catalog, the resolved classes and a checked verifier.
type simSetup struct {
	classes [3]boundClass
	seeds   []uint64
	v       *verifier
}

func setupSim(w *simWorkload, cfg config, ledger map[string]string) (*simSetup, error) {
	if err := selfTest(); err != nil {
		return nil, err
	}
	reg := registry.Default()
	s := &simSetup{seeds: w.seeds(cfg.seed), v: newVerifier(ledger)}
	for i, c := range w.classes {
		e, ok := reg.Lookup(c.exp)
		if !ok {
			return nil, fmt.Errorf("catalog has no experiment %q", c.exp)
		}
		params, _, err := e.Resolve(c.params)
		if err != nil {
			return nil, err
		}
		s.classes[i] = boundClass{simClass: c, e: e, params: params}
	}
	if _, ok := s.runUntraced(w.warm, s.seeds[0]); !ok {
		return nil, fmt.Errorf("setup op %s failed verification: %s", w.classes[w.warm].exp, strings.Join(s.v.errs, "; "))
	}
	return s, nil
}

// runUntraced runs one op through the catalog, as every other entry
// point does, and verifies it. It returns the output digest.
func (s *simSetup) runUntraced(class int, seed uint64) (string, bool) {
	c := &s.classes[class]
	res, err := c.e.Run(context.Background(), registry.Request{Seed: seed, Params: c.params})
	return s.verify(c, seed, res, err)
}

func (s *simSetup) verify(c *boundClass, seed uint64, res *registry.Result, err error) (string, bool) {
	if err != nil {
		return "", s.v.fail("%s@%d: %v", c.exp, seed, err)
	}
	if c.check != nil {
		if err := c.check(res); err != nil {
			return "", s.v.fail("%s@%d: %v", c.exp, seed, err)
		}
	}
	d := digest(res)
	return d, s.v.checkDigest(c.exp, seed, d)
}

func runSim(w *simWorkload, cfg config) (*result, error) {
	ledger, err := loadLedger(cfg.build)
	if err != nil {
		return nil, err
	}
	var setups []time.Duration
	var s *simSetup
	before := calibrate()
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = cfg.start
		}
		if s, err = setupSim(w, cfg, ledger); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		after := calibrate()
		setups = append(setups, normalize(d, before, after))
		before = after
	}
	var res *result
	if cfg.traced {
		if res, err = measureSimTraced(w, s, cfg); err == nil {
			res.Metrics, err = completeLayers(res.Metrics)
		}
	} else {
		res, err = measureSim(w, s, cfg, setups)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range s.v.errs {
		fmt.Fprintln(os.Stderr, "perfbench: verification failure:", e)
	}
	res.Failed = s.v.failed
	res.Correct = s.v.failed == 0
	return res, s.v.saveLedger(cfg.build)
}

// measureSim is the untraced run: whole rotations until the window is
// spent, each op timed from call to verified return and normalized by
// the calibration kernel timed just before and just after it.
func measureSim(w *simWorkload, s *simSetup, cfg config, setups []time.Duration) (*result, error) {
	var all []time.Duration
	var class [3][]time.Duration
	var busy time.Duration
	attempted := 0
	before := calibrate()
	t0 := time.Now()
	for r := 0; time.Since(t0) < cfg.window; r++ {
		seed := s.seeds[r%len(s.seeds)]
		for _, c := range w.rotation {
			start := time.Now()
			cc := &s.classes[c]
			res, err := cc.e.Run(context.Background(), registry.Request{Seed: seed, Params: cc.params})
			d := time.Since(start)
			after := calibrate()
			d = normalize(d, before, after)
			before = after
			attempted++
			if _, ok := s.verify(cc, seed, res, err); ok {
				all = append(all, d)
				class[c] = append(class[c], d)
				busy += d
			}
		}
	}
	m, err := endToEnd(setups, all, class, busy, w.tail)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops in %.1fs: %s %d, %s %d, %s %d\n",
		w.name, attempted, time.Since(t0).Seconds(), w.classes[0].exp, len(class[0]),
		w.classes[1].exp, len(class[1]), w.classes[2].exp, len(class[2]))
	return &result{Attempted: attempted, Metrics: m}, nil
}

// measureSimTraced is the traced run. Each op runs twice with the same
// seed: once through the traced replica, once through the catalog. The
// two digests must match — a replica that drifted from the experiment
// fails the run instead of mis-attributing time — and the difference in
// wall time is the tracing overhead.
func measureSimTraced(w *simWorkload, s *simSetup, cfg config) (*result, error) {
	tr := newTracer()
	var traced, untraced [3]time.Duration
	var ops [3]int
	opClass := map[int]int{}
	opScale := map[int]float64{}
	attempted, opID := 0, 0
	gc0 := gcPauseNs()
	before := calibrate()
	t0 := time.Now()
	for r := 0; time.Since(t0) < cfg.window; r++ {
		seed := s.seeds[r%len(s.seeds)]
		for _, c := range w.rotation {
			cc := &s.classes[c]
			opID++
			opClass[opID] = c
			root := tr.root(opID, "op")
			start := time.Now()
			res, err := cc.traced(root, seed)
			raw := time.Since(start)
			root.end()
			mid := calibrate()
			dt := normalize(raw, before, mid)
			opScale[opID] = float64(dt) / float64(raw)
			attempted++
			dTraced, ok := s.verify(cc, seed, res, err)
			if !ok {
				before = calibrate()
				continue
			}
			start = time.Now()
			dUntraced, ok := s.runUntraced(c, seed)
			du := time.Since(start)
			before = calibrate()
			du = normalize(du, mid, before)
			attempted++
			if !ok {
				continue
			}
			if dTraced != dUntraced {
				s.v.fail("%s@%d: traced replica digest %s, catalog run %s", cc.exp, seed, dTraced, dUntraced)
				continue
			}
			traced[c] += dt
			untraced[c] += du
			ops[c]++
		}
	}
	gcPause := gcPauseNs() - gc0
	if err := tr.dump(filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", w.name, cfg.seed))); err != nil {
		return nil, err
	}
	sum := summarize(tr.spans, opClass, opScale)
	var tTraced, tUntraced time.Duration
	nops := 0
	for c := range ops {
		tTraced += traced[c]
		tUntraced += untraced[c]
		nops += ops[c]
	}
	if nops == 0 {
		return nil, fmt.Errorf("no traced op completed")
	}
	m := layerMetrics(sum.total, nops)
	m["trace.overhead_pct"] = metric{100 * (tTraced.Seconds() - tUntraced.Seconds()) / tUntraced.Seconds(), "%"}
	m["go.gc_pause_ms"] = metric{float64(gcPause) / 1e6 / float64(nops), "ms"}
	fmt.Fprint(os.Stderr, writeShareReport(w, sum, ops, traced, untraced))
	return &result{Attempted: attempted, Metrics: m}, nil
}
