package main

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/board"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/registry"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/vimg"
)

// figuresWorkload is voltboot-figures: the paper's headline Volt Boot
// reproductions. Board power-up, power-cycle physics, superblock
// execution and cache extraction do nearly all the work; the service
// layers none.
func figuresWorkload() *simWorkload {
	return &simWorkload{
		name: "voltboot-figures",
		classes: [3]simClass{
			{exp: "figure7", traced: tracedFigure7},
			{exp: "figure8", traced: tracedFigure8},
			{exp: "table4", traced: tracedTable4},
		},
		rotation: []int{0, 1, 0, 1, 2},
		// The golden seed comes first, so every run checks the pinned
		// digests, and setup's warm-up figure8 run is itself checked
		// against its pin.
		seeds: func(seed uint64) []uint64 {
			return []uint64{goldenSeed,
				runner.SeedFor(seed, "perfbench/voltboot-figures", 1),
				runner.SeedFor(seed, "perfbench/voltboot-figures", 2)}
		},
		warm: 1,
		tail: 0.9,
	}
}

// newPoweredBoard is the experiments' board constructor: build, then
// plug in the main supply.
func newPoweredBoard(sp scope, env *sim.Env, spec soc.DeviceSpec, seed uint64) (*board.Board, error) {
	s := sp.child("board.new")
	b, err := board.New(env, spec, soc.Options{}, seed)
	s.end()
	if err != nil {
		return nil, err
	}
	s = sp.child("board.power_on")
	b.ConnectMain()
	s.end()
	return b, nil
}

func boot(sp scope, b *board.Board, img *soc.BootImage) error {
	s := sp.child("soc.boot")
	err := b.SoC.Boot(img)
	s.end()
	return err
}

// execute times one execution call under name (soc.exec or
// soc.exec_armed) with the exact retired-instruction delta of cpus.
func execute(sp scope, name string, cpus []*isa.CPU, run func() error) error {
	var before uint64
	for _, c := range cpus {
		before += c.Instret
	}
	s := sp.child(name)
	err := run()
	var after uint64
	for _, c := range cpus {
		after += c.Instret
	}
	s.finish(after-before, 0)
	return err
}

func allCPUs(b *board.Board) []*isa.CPU {
	var out []*isa.CPU
	for _, c := range b.SoC.Cores {
		out = append(out, c.CPU)
	}
	return out
}

// attack runs the Volt Boot cache attack. Its power cycle happens inside
// core.VoltBootCaches, where the benchmark cannot time it, so it is timed
// first on a snapshot fork — capture, cut main power, wait the attack's
// off-time, reconnect, restore — and the real attack then starts from
// the restored state.
func attack(sp scope, b *board.Board, tags bool) (*core.CacheExtraction, error) {
	cfg := core.DefaultAttackConfig()
	s := sp.child("trace.fork")
	snap := b.CaptureSnapshot()
	s.end()
	s = sp.child("physics.power_cycle")
	b.DisconnectMain()
	b.Env.Advance(cfg.OffTime)
	b.ConnectMain()
	s.end()
	s = sp.child("trace.fork")
	b.RestoreSnapshot(snap)
	s.end()
	s = sp.child("core.attack")
	defer s.end()
	if tags {
		return core.VoltBootCachesWithTags(b, cfg)
	}
	return core.VoltBootCaches(b, cfg)
}

// fanMap is runner.Map with a runner.fanout span around the fan-out and
// a runner.item span around each item.
func fanMap[T any](sp scope, n int, fn func(item scope, i int) (T, error)) ([]T, error) {
	fan := sp.child("runner.fanout")
	out, err := runner.Map(n, func(i int) (T, error) {
		item := fan.child("runner.item")
		defer item.end()
		return fn(item, i)
	})
	fan.finish(0, mapWorkers(n))
	return out, err
}

// tracedFigure7 is experiments.Figure7 split at its layer calls.
func tracedFigure7(op scope, seed uint64) (*registry.Result, error) {
	specs := []soc.DeviceSpec{soc.BCM2711(), soc.BCM2837()}
	rs, err := fanMap(op, len(specs), func(sp scope, si int) (*experiments.Figure7Result, error) {
		spec := specs[si]
		b, err := newPoweredBoard(sp, sim.NewQuietEnv(), spec, seed)
		if err != nil {
			return nil, err
		}
		victim, _, err := core.VictimNOPFillImage(spec)
		if err != nil {
			return nil, err
		}
		if err := boot(sp, b, victim); err != nil {
			return nil, err
		}
		if err := execute(sp, "soc.exec", allCPUs(b), func() error { return b.SoC.RunAllCores(10_000_000) }); err != nil {
			return nil, err
		}
		s := sp.child("analysis")
		truth := make([][][]byte, spec.Cores)
		for c, cc := range b.SoC.Cores {
			for w := 0; w < spec.L1I.Ways; w++ {
				truth[c] = append(truth[c], cc.L1I.DumpWay(w))
			}
		}
		s.end()
		ext, err := attack(sp, b, false)
		if err != nil {
			return nil, err
		}
		s = sp.child("analysis")
		defer s.end()
		res := &experiments.Figure7Result{SoCName: spec.SoCName}
		nopWord := isa.NOPWord
		if spec.L1I.InlineECC {
			nopWord = cache.ECCEncodeWord(nopWord)
		}
		nop := make([]byte, 4)
		for i := range nop {
			nop[i] = byte(nopWord >> (8 * i))
		}
		for c, dump := range ext.Dumps {
			var accs []float64
			total, nops := 0, 0
			for w, way := range dump.L1I {
				accs = append(accs, analysis.RetentionAccuracy(truth[c][w], way))
				for i := 0; i+4 <= len(way); i += 4 {
					total++
					if way[i] == nop[0] && way[i+1] == nop[1] && way[i+2] == nop[2] && way[i+3] == nop[3] {
						nops++
					}
				}
			}
			res.RetentionAccuracy = append(res.RetentionAccuracy, analysis.Mean(accs))
			res.NOPFraction = append(res.NOPFraction, float64(nops)/float64(total))
		}
		res.ASCII = vimg.ASCIIDensity(ext.Dumps[0].L1I[0], 64, 8)
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.String())
	}
	return &registry.Result{Text: b.String()}, nil
}

// tracedFigure8 is experiments.Figure8 split at its layer calls. Like
// the experiment it logs into a full event log (sim.NewEnv).
func tracedFigure8(op scope, seed uint64) (*registry.Result, error) {
	spec := soc.BCM2711()
	b, err := newPoweredBoard(op, sim.NewEnv(), spec, seed)
	if err != nil {
		return nil, err
	}
	if err := boot(op, b, nil); err != nil {
		return nil, err
	}
	k := kernel.New(b.SoC, kernel.DefaultConfig(seed))
	cc := b.SoC.Cores[0]
	cc.L1D.InvalidateAll()
	cc.L1I.InvalidateAll()
	cc.L1D.SetEnabled(true)
	cc.L1I.SetEnabled(true)
	prog, err := kernel.PatternFillProgram(soc.PayloadBase, 0x100000, 2048, 0xAA)
	if err != nil {
		return nil, err
	}
	for i, w := range prog {
		b.SoC.WriteDRAM(int(soc.PayloadBase)+i*4, []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
	}
	cc.CPU.Reset(soc.PayloadBase)
	if err := execute(op, "soc.exec", []*isa.CPU{cc.CPU}, func() error { return k.RunWithNoise(0, 50_000_000) }); err != nil {
		return nil, err
	}
	ext, err := attack(op, b, true)
	if err != nil {
		return nil, err
	}
	s := op.child("analysis")
	res := &experiments.Figure8Result{}
	codeLo := soc.PayloadBase
	codeHi := soc.PayloadBase + uint64(len(prog)*4)
	res.ProgramLinesExpected = int((codeHi + 63 - codeLo) / 64)
	seen := map[uint64]bool{}
	for w := range ext.Dumps[0].L1ITags {
		for set, entry := range ext.Dumps[0].L1ITags[w] {
			li := cache.ParseTagEntry(entry, set, spec.L1I)
			if li.Valid && li.Addr >= codeLo && li.Addr < codeHi && !seen[li.Addr] {
				seen[li.Addr] = true
				res.ProgramLinesLocated++
			}
		}
	}
	var dAll, iAll []byte
	for _, way := range ext.Dumps[0].L1D {
		dAll = append(dAll, way...)
	}
	for _, way := range ext.Dumps[0].L1I {
		iAll = append(iAll, way...)
	}
	aa := 0
	for _, by := range dAll {
		if by == 0xAA {
			aa++
		}
	}
	res.PatternByteFraction = float64(aa) / float64(len(dAll))
	needle := make([]byte, 16)
	for i := 0; i < 4; i++ {
		w := prog[i]
		needle[i*4], needle[i*4+1], needle[i*4+2], needle[i*4+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
	res.InstructionMatches = len(analysis.FindPattern(iAll, needle))
	res.DCacheASCII = vimg.ASCIIDensity(ext.Dumps[0].L1D[0], 64, 8)
	res.ICacheASCII = vimg.ASCIIDensity(ext.Dumps[0].L1I[0], 64, 8)
	s.end()
	return &registry.Result{Text: res.String()}, nil
}

// table4Elem is experiments' element value for (core, index).
func table4Elem(coreID, i int) []byte {
	v := uint64(0xA110000000000000) | uint64(coreID)<<48 | uint64(i)
	b := make([]byte, 8)
	for k := range b {
		b[k] = byte(v >> (8 * k))
	}
	return b
}

func meanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// tracedTable4 is experiments.Table4 split at its layer calls.
func tracedTable4(op scope, seed uint64) (*registry.Result, error) {
	spec := soc.BCM2711()
	res := &experiments.Table4Result{SizesKB: []int{4, 8, 16, 32}, Cores: spec.Cores, Reps: 3}
	type tally struct{ in0, in1, inU []int }
	cells, err := fanMap(op, len(res.SizesKB)*res.Reps, func(sp scope, idx int) (tally, error) {
		sizeKB := res.SizesKB[idx/res.Reps]
		rep := idx % res.Reps
		n := sizeKB * 1024 / 8
		repSeed := seed + uint64(sizeKB)*1000 + uint64(rep)
		b, err := newPoweredBoard(sp, sim.NewQuietEnv(), spec, repSeed)
		if err != nil {
			return tally{}, err
		}
		if err := boot(sp, b, nil); err != nil {
			return tally{}, err
		}
		k := kernel.New(b.SoC, kernel.DefaultConfig(repSeed))
		for c := 0; c < spec.Cores; c++ {
			cc := b.SoC.Cores[c]
			cc.L1D.InvalidateAll()
			cc.L1I.InvalidateAll()
			cc.L1D.SetEnabled(true)
			cc.L1I.SetEnabled(true)
			data := make([]byte, n*8)
			for i := 0; i < n; i++ {
				copy(data[i*8:], table4Elem(c, i))
			}
			if err := k.StageFile(c, 0x180000, 0x100000, data); err != nil {
				return tally{}, err
			}
			prog, err := kernel.ArrayBenchmarkProgram(soc.PayloadBase, 0x100000, n, 30)
			if err != nil {
				return tally{}, err
			}
			for i, w := range prog {
				b.SoC.WriteDRAM(int(soc.PayloadBase)+i*4,
					[]byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
			}
			cc.CPU.Reset(soc.PayloadBase)
			if err := execute(sp, "soc.exec", []*isa.CPU{cc.CPU}, func() error { return k.RunWithNoise(c, 100_000_000) }); err != nil {
				return tally{}, err
			}
		}
		ext, err := attack(sp, b, false)
		if err != nil {
			return tally{}, err
		}
		s := sp.child("analysis")
		defer s.end()
		t := tally{in0: make([]int, spec.Cores), in1: make([]int, spec.Cores), inU: make([]int, spec.Cores)}
		for c := 0; c < spec.Cores; c++ {
			d0 := analysis.NewAlignedElementSet(ext.Dumps[c].L1D[0], 8)
			d1 := analysis.NewAlignedElementSet(ext.Dumps[c].L1D[1], 8)
			for i := 0; i < n; i++ {
				e := table4Elem(c, i)
				f0 := d0.Contains(e)
				f1 := d1.Contains(e)
				if f0 {
					t.in0[c]++
				}
				if f1 {
					t.in1[c]++
				}
				if f0 || f1 {
					t.inU[c]++
				}
			}
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	for si, sizeKB := range res.SizesKB {
		n := sizeKB * 1024 / 8
		var row []experiments.Table4Cell
		for c := 0; c < spec.Cores; c++ {
			var w0s, w1s, unions []int
			for rep := 0; rep < res.Reps; rep++ {
				t := cells[si*res.Reps+rep]
				w0s = append(w0s, t.in0[c])
				w1s = append(w1s, t.in1[c])
				unions = append(unions, t.inU[c])
			}
			cell := experiments.Table4Cell{W0: meanInts(w0s), W1: meanInts(w1s), Union: meanInts(unions)}
			cell.ExtractedPct = cell.Union / float64(n) * 100
			row = append(row, cell)
		}
		res.Cells = append(res.Cells, row)
	}
	return &registry.Result{Text: res.String()}, nil
}
