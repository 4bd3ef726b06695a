package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/board"
	"repro/internal/experiments"
	"repro/internal/glitch"
	"repro/internal/isa"
	"repro/internal/registry"
	"repro/internal/runner"
	"repro/internal/sca"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// scaTraces is the CPA trace count: the realistic regime, where the
// correlation itself, not capture, is a large share of the work.
const scaTraces = 1000

// faultWorkload is fault-sca: the glitch and side-channel attack
// campaigns. Per-trial snapshot restores, armed per-instruction
// stepping, trace capture, CPA and per-worker rig construction
// dominate; superblocks are off (arming disengages them) and no power
// cycle happens. trace-capture runs sca-cpa's capture alone, so the
// difference between the two classes is the CPA step.
func faultWorkload() *simWorkload {
	sca := map[string]string{"traces": fmt.Sprint(scaTraces)}
	return &simWorkload{
		name: "fault-sca",
		classes: [3]simClass{
			{exp: "glitch-search", traced: tracedGlitchSearch},
			{exp: "sca-cpa", params: sca, traced: tracedSCACPA, check: checkRecovered},
			{exp: "trace-capture", params: map[string]string{
				"traces": fmt.Sprint(scaTraces), "samples-window": "256", "noise-sigma": "1",
			}, traced: tracedTraceCapture},
		},
		rotation: []int{0, 2, 0, 2, 1},
		seeds: func(seed uint64) []uint64 {
			return []uint64{runner.SeedFor(seed, "perfbench/fault-sca", 0),
				runner.SeedFor(seed, "perfbench/fault-sca", 1)}
		},
		warm: 0,
		tail: 0.9,
	}
}

// checkRecovered requires the CPA to have recovered the whole key.
func checkRecovered(res *registry.Result) error {
	for _, a := range res.Artifacts {
		if a.Name != "cpa_keyrank.json" {
			continue
		}
		var kr struct {
			Recovered bool `json:"recovered"`
		}
		if err := json.Unmarshal(a.Data, &kr); err != nil {
			return fmt.Errorf("cpa_keyrank.json: %w", err)
		}
		if !kr.Recovered {
			return errors.New("sca-cpa did not recover the key")
		}
		return nil
	}
	return errors.New("sca-cpa result has no cpa_keyrank.json")
}

// Layout constants copied from internal/experiments: the glitch
// scenario's staged image, boot-status and proof words, and the AES
// victim's state, round keys, S-box and output.
const (
	glitchImageBase  = uint64(0x100000)
	glitchStatusAddr = uint64(0x4000)
	glitchProofAddr  = uint64(0x4800)
	glitchRunBudget  = uint64(50_000)

	scaStateAddr = uint64(0x40000)
	scaKeyAddr   = uint64(0x41000)
	scaSBoxAddr  = uint64(0x42000)
	scaOutAddr   = uint64(0x43000)
	scaRounds    = 10
)

// mapWorkers is the fan-out width the runner uses for n items.
func mapWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	return w
}

// fanMapResource is runner.MapWithResource with runner spans; building
// a worker's resource counts as one of its items.
func fanMapResource[R, T any](sp scope, n int, mk func(item scope) (R, error), fn func(item scope, r R, i int) (T, error)) ([]T, error) {
	workers := runtime.GOMAXPROCS(0)
	fan := sp.child("runner.fanout")
	out, err := runner.MapWithResource(context.Background(), n, workers,
		func() (R, error) {
			item := fan.child("runner.item")
			defer item.end()
			return mk(item)
		},
		func(r R, i int) (T, error) {
			item := fan.child("runner.item")
			defer item.end()
			return fn(item, r, i)
		})
	fan.finish(0, mapWorkers(n))
	return out, err
}

func snapshot(sp scope, b *board.Board) *board.Snapshot {
	s := sp.child("board.snapshot")
	defer s.end()
	return b.CaptureSnapshot()
}

func restore(sp scope, b *board.Board, snap *board.Snapshot) {
	s := sp.child("board.restore")
	b.RestoreSnapshot(snap)
	s.end()
}

// glitchRig mirrors the experiment's per-worker secure-boot bench.
type glitchRig struct {
	b    *board.Board
	rom  *glitch.BootROM
	g    *glitch.Glitcher
	snap *board.Snapshot
}

func newGlitchRig(sp scope, seed uint64) (*glitchRig, error) {
	b, err := newPoweredBoard(sp, sim.NewQuietEnv(), soc.BCM2711(), seed)
	if err != nil {
		return nil, err
	}
	s := b.SoC
	image, err := glitch.BuildDemoImage(glitchImageBase, glitchProofAddr)
	if err != nil {
		return nil, err
	}
	rom, err := glitch.BuildBootROM(soc.ROMBase, image, glitchImageBase, glitchStatusAddr)
	if err != nil {
		return nil, err
	}
	if err := s.ProgramROM(rom.Words); err != nil {
		return nil, err
	}
	tampered := glitch.TamperImage(image)
	buf := make([]byte, len(tampered)*4)
	for i, w := range tampered {
		buf[i*4] = byte(w)
		buf[i*4+1] = byte(w >> 8)
		buf[i*4+2] = byte(w >> 16)
		buf[i*4+3] = byte(w >> 24)
	}
	s.WriteDRAM(int(glitchImageBase), buf)
	cpu := s.Cores[0].CPU
	cpu.Reset(rom.Entry)
	rig := &glitchRig{b: b, rom: rom, g: glitch.New(s.CoreDom, cpu)}
	rig.snap = snapshot(sp, b)
	return rig, nil
}

func (r *glitchRig) run(sp scope, t glitch.Trigger, p glitch.Pulse, seed uint64) experiments.GlitchOutcome {
	restore(sp, r.b, r.snap)
	s := sp.child("fault.arm")
	r.g.Arm(t, p, seed)
	s.end()
	err := execute(sp, "soc.exec_armed", []*isa.CPU{r.b.SoC.Cores[0].CPU}, func() error {
		return r.b.SoC.RunCore(0, glitchRunBudget)
	})
	s = sp.child("fault.arm")
	r.g.Finish()
	s.end()
	if err != nil {
		var runaway *isa.RunawayError
		if errors.As(err, &runaway) {
			return experiments.GlitchHang
		}
		return experiments.GlitchCrash
	}
	status := r.readU64(glitchStatusAddr)
	proof := r.readU64(glitchProofAddr)
	switch {
	case status == glitch.BootMagic && proof == glitch.ProofMagic:
		return experiments.GlitchBypass
	case status == glitch.LockMagic:
		return experiments.GlitchLockdown
	default:
		return experiments.GlitchCrash
	}
}

func (r *glitchRig) readU64(addr uint64) uint64 {
	b := r.b.SoC.ReadDRAM(int(addr), 8)
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// tracedGlitchSearch is the catalog's glitch-search on its default grid
// (experiments.GlitchSearchCtx) split at its layer calls.
func tracedGlitchSearch(op scope, seed uint64) (*registry.Result, error) {
	offsets, widths, depths := experiments.GlitchSearchOffsets(), experiments.GlitchSearchWidths(), experiments.GlitchSearchDepths()
	const trials = 6
	var cells []experiments.GlitchCell
	for _, off := range offsets {
		for _, w := range widths {
			for _, d := range depths {
				cells = append(cells, experiments.GlitchCell{Offset: off, Width: w, Depth: d})
			}
		}
	}
	outs, err := fanMapResource(op, len(cells)*trials,
		func(item scope) (*glitchRig, error) { return newGlitchRig(item, seed) },
		func(item scope, rig *glitchRig, i int) (experiments.GlitchOutcome, error) {
			c := &cells[i/trials]
			return rig.run(item,
				glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: rig.rom.HashDonePC},
				glitch.Pulse{Offset: c.Offset, Width: c.Width, Depth: c.Depth},
				runner.SeedFor(seed, "glitch-search", i)), nil
		})
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		c := &cells[i/trials]
		switch out {
		case experiments.GlitchBypass:
			c.Bypass++
		case experiments.GlitchLockdown:
			c.Lockdown++
		case experiments.GlitchCrash:
			c.Crash++
		default:
			c.Hang++
		}
	}
	rig, err := newGlitchRig(op, seed)
	if err != nil {
		return nil, err
	}
	res := &experiments.GlitchSearchResult{
		Board:     rig.b.SoC.Spec.Board,
		TriggerPC: rig.rom.HashDonePC,
		Trials:    trials,
		Cells:     cells,
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return &registry.Result{
		Text:      res.String(),
		Artifacts: []registry.Artifact{{Name: "glitch_success_map.json", Kind: "json", Data: blob}},
	}, nil
}

// scaRig mirrors the experiment's per-worker capture bench.
type scaRig struct {
	b      *board.Board
	v      *trace.AESVictim
	cap    *trace.Capturer
	snap   *board.Snapshot
	budget uint64
}

func newSCARig(sp scope, seed uint64, key [16]byte, arena int) (*scaRig, error) {
	b, err := newPoweredBoard(sp, sim.NewQuietEnv(), soc.BCM2711(), seed)
	if err != nil {
		return nil, err
	}
	s := b.SoC
	v, err := trace.BuildAESVictim(soc.PayloadBase, scaStateAddr, scaKeyAddr, scaSBoxAddr, scaOutAddr, scaRounds)
	if err != nil {
		return nil, err
	}
	if err := boot(sp, b, &soc.BootImage{Words: v.Words, EnableCaches: true}); err != nil {
		return nil, err
	}
	if err := v.StageData(s, key); err != nil {
		return nil, err
	}
	c, err := trace.New(s, 0, arena)
	if err != nil {
		return nil, err
	}
	rig := &scaRig{b: b, v: v, cap: c, budget: uint64(v.RunLength()) + 64}
	rig.snap = snapshot(sp, b)
	return rig, nil
}

// capture is the experiment's per-trial capture: fork, stage the
// plaintext, an unarmed warm-up run, then the armed measured run.
func (r *scaRig) capture(sp scope, pt [16]byte, sigma float64, rng *xrand.Rand) ([]float32, error) {
	restore(sp, r.b, r.snap)
	r.b.SoC.WriteDRAM(int(scaStateAddr), pt[:])
	cpu := r.b.SoC.Cores[0].CPU
	cpus := []*isa.CPU{cpu}
	if err := execute(sp, "soc.exec", cpus, func() error { return r.b.SoC.RunCore(0, r.budget) }); err != nil {
		return nil, err
	}
	cpu.Reset(r.v.Entry)
	for i := 0; i < isa.XZR; i++ {
		cpu.SetX(i, 0)
	}
	s := sp.child("fault.arm")
	r.cap.Arm()
	s.end()
	err := execute(sp, "soc.exec_armed", cpus, func() error { return r.b.SoC.RunCore(0, r.budget) })
	s = sp.child("fault.arm")
	r.cap.Disarm()
	s.end()
	if err != nil {
		return nil, err
	}
	samples := r.cap.Samples()
	out := make([]float32, len(samples))
	if sigma == 0 {
		copy(out, samples)
		return out, nil
	}
	for i, x := range samples {
		out[i] = x + float32(sigma*rng.NormFloat64())
	}
	return out, nil
}

// captureTraceSet mirrors the experiments' trace campaign.
func captureTraceSet(op scope, seed uint64, n, window int, sigma float64, key [16]byte) (*experiments.SCATraceSet, error) {
	type capt struct {
		t  []float32
		pt [16]byte
	}
	outs, err := fanMapResource(op, n,
		func(item scope) (*scaRig, error) { return newSCARig(item, seed, key, window) },
		func(item scope, rig *scaRig, i int) (capt, error) {
			rng := xrand.New(runner.SeedFor(seed, "sca-trace", i))
			var c capt
			for j := range c.pt {
				c.pt[j] = byte(rng.Uint64())
			}
			t, err := rig.capture(item, c.pt, sigma, rng)
			c.t = t
			return c, err
		})
	if err != nil {
		return nil, err
	}
	rig, err := newSCARig(op, seed, key, window)
	if err != nil {
		return nil, err
	}
	set := &experiments.SCATraceSet{
		Board:           rig.b.SoC.Spec.Board,
		Key:             key,
		NoiseSigma:      sigma,
		SamplesPerTrace: len(outs[0].t),
		RunLength:       rig.v.RunLength(),
		Rounds:          rig.v.Rounds,
		QuietGap:        rig.v.QuietGap(),
		Traces:          make([][]float32, n),
		Pts:             make([][]byte, n),
	}
	for i, o := range outs {
		set.Traces[i] = o.t
		pt := o.pt
		set.Pts[i] = pt[:]
	}
	for r := 0; r < rig.v.Rounds; r++ {
		set.RoundStarts = append(set.RoundStarts, rig.v.RoundStart(r))
	}
	for b := 0; b < 16; b++ {
		set.LeakSamples = append(set.LeakSamples, rig.v.LeakSample(0, b))
	}
	return set, nil
}

func scaDefaults() (key [16]byte, window int, sigma float64, err error) {
	key, err = experiments.ParseSCAKey(experiments.SCADefaultKey)
	return key, 256, 1, err
}

// tracedSCACPA is sca-cpa at scaTraces traces (experiments.SCACPACtx)
// split at its layer calls.
func tracedSCACPA(op scope, seed uint64) (*registry.Result, error) {
	key, window, sigma, err := scaDefaults()
	if err != nil {
		return nil, err
	}
	set, err := captureTraceSet(op, seed, scaTraces, window, sigma, key)
	if err != nil {
		return nil, err
	}
	attackW := window
	if len(set.RoundStarts) > 1 && set.RoundStarts[1] < attackW {
		attackW = set.RoundStarts[1]
	}
	s := op.child("sca.attack")
	atk, err := sca.Attack(context.Background(), set.Traces, set.Pts, attackW, runtime.GOMAXPROCS(0))
	s.end()
	if err != nil {
		return nil, err
	}
	res := &experiments.SCACPAResult{
		Board:        set.Board,
		TraceCount:   scaTraces,
		Window:       set.SamplesPerTrace,
		AttackWindow: attackW,
		NoiseSigma:   sigma,
		TrueKey:      hex.EncodeToString(key[:]),
		RecoveredKey: hex.EncodeToString(atk.Key[:]),
		Recovered:    atk.Key == key,
		MinMargin:    atk.Bytes[0].Margin,
	}
	for b := 0; b < 16; b++ {
		br := &atk.Bytes[b]
		res.Bytes[b] = experiments.SCACPAByte{
			Guess:      br.Best,
			Corr:       br.PeakCorr,
			Margin:     br.Margin,
			PeakSample: br.PeakAt,
			TrueRank:   br.Rank(key[b]),
		}
		if br.Margin < res.MinMargin {
			res.MinMargin = br.Margin
		}
	}
	rank, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	traces, err := set.Artifact()
	if err != nil {
		return nil, err
	}
	return &registry.Result{
		Text: res.String(),
		Artifacts: []registry.Artifact{
			{Name: "cpa_keyrank.json", Kind: "json", Data: rank},
			{Name: "cpa_traces.vbtr", Kind: "trace", Data: traces},
		},
	}, nil
}

// tracedTraceCapture is trace-capture with sca-cpa's capture settings
// (experiments.TraceCaptureCtx) split at its layer calls.
func tracedTraceCapture(op scope, seed uint64) (*registry.Result, error) {
	key, window, sigma, err := scaDefaults()
	if err != nil {
		return nil, err
	}
	set, err := captureTraceSet(op, seed, scaTraces, window, sigma, key)
	if err != nil {
		return nil, err
	}
	blob, err := set.Artifact()
	if err != nil {
		return nil, err
	}
	return &registry.Result{
		Text:      (&experiments.TraceCaptureResult{Set: set}).String(),
		Artifacts: []registry.Artifact{{Name: "traces.vbtr", Kind: "trace", Data: blob}},
	}, nil
}
