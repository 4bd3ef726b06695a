package experiments

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/aes"
	"repro/internal/analysis"
	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/sram"
	"repro/internal/xrand"
)

// ProbeSweepRow is one current limit of Ablation A.
type ProbeSweepRow struct {
	ProbeAmps float64
	// RetentionAccuracy of the L1D extraction against the captured state.
	RetentionAccuracy float64
}

// ProbeSweepResult is Ablation A: the bench supply's current limit vs
// extraction accuracy, explaining §6's ">3A" requirement. The victim
// domain is the BCM2711's VDD_CORE, whose dying cores dump a ~2.5 A surge
// onto the probe at disconnect.
type ProbeSweepResult struct {
	SurgeAmps float64
	Rows      []ProbeSweepRow
}

// ProbeCurrentSweepCtx measures extraction accuracy across probe current
// limits. The ten cells share everything up to the probe's current
// limit — same-seed board, victim fill, victim run — so each worker runs
// that prefix once, captures a copy-on-write snapshot, and restores it
// per cell; only the Volt Boot tail re-runs. Rows come back in sweep
// order regardless of scheduling, bit-identical to fresh-board cells.
// The sweep stops dispatching current-limit cells once ctx is cancelled
// and returns ctx.Err().
func ProbeCurrentSweepCtx(ctx context.Context, seed uint64) (*ProbeSweepResult, error) {
	spec := soc.BCM2711()
	limits := []float64{0.1, 0.25, 0.5, 1.0, 2.0, 2.4, 2.6, 3.0, 3.5, 4.0}
	type fork struct {
		b     *board.Board
		truth []byte
		snap  *board.Snapshot
	}
	mk := func() (*fork, error) {
		b, _, err := newBoard(spec, soc.Options{}, seed)
		if err != nil {
			return nil, err
		}
		victim, err := core.VictimPatternFillImage(0x100000, 2048, 0x5A)
		if err != nil {
			return nil, err
		}
		if err := core.RunVictim(b, victim, 50_000_000); err != nil {
			return nil, err
		}
		return &fork{b: b, truth: b.SoC.Cores[0].L1D.DumpWay(0), snap: b.CaptureSnapshot()}, nil
	}
	rows, err := runner.MapWithResource(ctx, len(limits), runtime.GOMAXPROCS(0), mk, func(f *fork, i int) (ProbeSweepRow, error) {
		amps := limits[i]
		f.b.RestoreSnapshot(f.snap)
		cfg := core.DefaultAttackConfig()
		cfg.Probe.MaxAmps = amps
		ext, err := core.VoltBootCaches(f.b, cfg)
		if err != nil {
			return ProbeSweepRow{}, err
		}
		return ProbeSweepRow{
			ProbeAmps:         amps,
			RetentionAccuracy: analysis.RetentionAccuracy(f.truth, ext.Dumps[0].L1D[0]),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ProbeSweepResult{SurgeAmps: spec.DisconnectSurgeAmps, Rows: rows}, nil
}

// String renders Ablation A.
func (r *ProbeSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A: probe current limit vs extraction accuracy (surge %.1fA)\n", r.SurgeAmps)
	for _, row := range r.Rows {
		marker := ""
		if row.ProbeAmps >= r.SurgeAmps && row.RetentionAccuracy == 1 {
			marker = "  <- holds through surge"
		}
		fmt.Fprintf(&b, "  %4.1fA: %s%s\n", row.ProbeAmps, pct(row.RetentionAccuracy), marker)
	}
	return b.String()
}

// RetentionSweepCell is one (temperature, off-time) cell of Ablation B.
type RetentionSweepCell struct {
	TempC     float64
	OffTime   sim.Time
	Retention float64
}

// RetentionSweepResult is Ablation B: raw SRAM retention vs temperature
// and power-off time, the physics behind §3 and the remanence literature.
type RetentionSweepResult struct {
	Temps    []float64
	OffTimes []sim.Time
	// Cells[ti][oi]
	Cells [][]RetentionSweepCell
}

// RetentionSweepTemps is the default temperature axis of Ablation B.
func RetentionSweepTemps() []float64 { return []float64{25, 0, -40, -80, -110, -150} }

// RetentionSweepOffTimes is the default power-off-time axis of Ablation B.
func RetentionSweepOffTimes() []sim.Time {
	return []sim.Time{1 * sim.Millisecond, 20 * sim.Millisecond, 100 * sim.Millisecond, 1 * sim.Second}
}

// RetentionSweep measures a 64 KB SRAM array's retention across the
// default temperature/off-time grid. The grid is flattened to temp-major
// index order and fanned across CPUs. Every cell needs the same-seed
// array powered and filled with 0xA5 — and SRAM physics reads the
// ambient temperature only when a rail drops (sram decay clocks), never
// at power-up or fill — so each worker builds and fills the array once,
// captures an ArraySnapshot, and per cell restores it, rewinds the
// clock to the capture instant at the cell's temperature, and replays
// only the outage. The table is bit-identical to the
// array-per-cell nested loop it replaces.
func RetentionSweep(seed uint64) *RetentionSweepResult {
	// Background context + default grid cannot fail.
	res, _ := RetentionSweepGridCtx(context.Background(), seed, RetentionSweepTemps(), RetentionSweepOffTimes())
	return res
}

// RetentionSweepGridCtx is RetentionSweep over a caller-chosen grid (the
// campaign registry's temps/offtimes overrides) with cooperative
// cancellation. The default grid reproduces RetentionSweep byte for byte;
// every cell still uses the same seed, so overriding the grid changes
// which cells exist, never the silicon inside one.
func RetentionSweepGridCtx(ctx context.Context, seed uint64, temps []float64, offTimes []sim.Time) (*RetentionSweepResult, error) {
	res := &RetentionSweepResult{Temps: temps, OffTimes: offTimes}
	type fork struct {
		env    *sim.Env
		arr    *sram.Array
		before []byte
		snap   *sram.ArraySnapshot
		t0     sim.Time
	}
	mk := func() (*fork, error) {
		env := sim.NewEnv()
		arr := sram.NewArray(env, "sweep", 64*1024*8, seed)
		arr.SetRail(0.8)
		arr.Fill(0xA5)
		return &fork{env: env, arr: arr, before: arr.Snapshot(), snap: arr.CaptureSnapshot(), t0: env.Now()}, nil
	}
	cells, err := runner.MapWithResource(ctx, len(res.Temps)*len(res.OffTimes), runtime.GOMAXPROCS(0), mk, func(f *fork, i int) (RetentionSweepCell, error) {
		tempC := res.Temps[i/len(res.OffTimes)]
		off := res.OffTimes[i%len(res.OffTimes)]
		f.arr.RestoreSnapshot(f.snap)
		f.env.Rewind(f.t0, tempC)
		f.arr.SetRail(0)
		f.env.Advance(off)
		f.arr.SetRail(0.8)
		return RetentionSweepCell{
			TempC:     tempC,
			OffTime:   off,
			Retention: analysis.RetentionAccuracy(f.before, f.arr.Snapshot()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for ti := range res.Temps {
		res.Cells = append(res.Cells, cells[ti*len(res.OffTimes):(ti+1)*len(res.OffTimes)])
	}
	return res, nil
}

// String renders Ablation B. Retention accuracy bottoms out at ≈0.5
// (agreement by chance with the power-up fingerprint).
func (r *RetentionSweepResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation B: SRAM retention vs temperature and power-off time\n")
	fmt.Fprintf(&b, "  %8s", "")
	for _, off := range r.OffTimes {
		fmt.Fprintf(&b, "%12s", off)
	}
	b.WriteString("\n")
	for ti, tempC := range r.Temps {
		fmt.Fprintf(&b, "  %7.0f°", tempC)
		for oi := range r.OffTimes {
			fmt.Fprintf(&b, "%12s", pct(r.Cells[ti][oi].Retention))
		}
		b.WriteString("\n")
	}
	b.WriteString("  (retention 50% = total loss: agreement with the fingerprint by chance)\n")
	return b.String()
}

// DRAMColdBootResult is Ablation C: the classic Halderman attack on DRAM,
// run for contrast with the SRAM results (§5.1, §9).
type DRAMColdBootResult struct {
	TempC   float64
	OffTime sim.Time
	// ScheduleByteDecayPct is the fraction of schedule bytes that decayed
	// to ground during the outage.
	ScheduleByteDecayPct float64
	// KeyRecovered reports whether the reconstruction found the key.
	KeyRecovered bool
	// SRAMControlRecovered is the same attempt against a schedule held in
	// SRAM across an unprobed power cycle — bistable decay, expected to
	// fail.
	SRAMControlRecovered bool
}

// DRAMColdBoot stages an AES-128 key schedule in cooled DRAM, power
// cycles, extracts the physical image, and reconstructs the master key
// from the decayed schedule; then repeats the attempt against SRAM.
func DRAMColdBoot(seed uint64) (*DRAMColdBootResult, error) {
	spec := soc.BCM2711()
	b, env, err := newBoard(spec, soc.Options{}, seed)
	if err != nil {
		return nil, err
	}
	rng := xrand.Derive(seed, "dram-coldboot")
	key := make([]byte, 16)
	rng.Bytes(key)
	sched, err := aes.ExpandKey128(key)
	if err != nil {
		return nil, err
	}
	const schedOff = 0x1000 // inside the first (ground 0x00) block
	b.SoC.DRAM.Write(schedOff, sched)

	// Cool, cut power for the manual transplant interval, restore.
	// −30 °C and 25 s put the module's median retention (~150 s) well
	// above the outage, leaving a few percent of bytes decayed — the
	// regime our compact reconstruction search handles (DESIGN.md notes
	// the original publication's global solver tolerates more).
	res := &DRAMColdBootResult{TempC: -30, OffTime: 25 * sim.Second}
	env.SetTemperatureC(res.TempC)
	b.DisconnectMain()
	env.Advance(res.OffTime)
	b.ConnectMain()

	image := b.SoC.DRAM.Read(schedOff, aes.ScheduleSize128)
	decayed := 0
	for i := range image {
		if image[i] != sched[i] {
			decayed++
		}
	}
	res.ScheduleByteDecayPct = float64(decayed) / float64(len(image)) * 100

	recCfg := aes.DefaultReconstructConfig(0x00)
	recCfg.MaxNodes = 400_000_000
	got, err := aes.ReconstructKey128(image, recCfg)
	res.KeyRecovered = err == nil && bytes.Equal(got, key)

	// SRAM control: the same schedule in an L1 way, unprobed power cycle.
	arr := b.SoC.Cores[0].L1D.Arrays()[0]
	arr.WriteBytes(0, sched)
	arr.SetRail(0)
	env.Advance(2 * sim.Second)
	arr.SetRail(spec.CoreVolts)
	sramImage := arr.ReadBytes(0, aes.ScheduleSize128)
	cfg := aes.DefaultReconstructConfig(0x00)
	cfg.MaxNodes = 5_000_000
	sramGot, sramErr := aes.ReconstructKey128(sramImage, cfg)
	res.SRAMControlRecovered = sramErr == nil && bytes.Equal(sramGot, key)
	return res, nil
}

// String renders Ablation C.
func (r *DRAMColdBootResult) String() string {
	verdict := func(ok bool) string {
		if ok {
			return "RECOVERED"
		}
		return "failed"
	}
	return fmt.Sprintf(
		"Ablation C: classic cold boot on DRAM vs SRAM (key schedule transplant)\n"+
			"  DRAM at %.0f°C, %s off: %.1f%% of schedule bytes decayed -> key %s\n"+
			"  SRAM control (bistable decay, same attempt):          key %s\n"+
			"  (the contrast motivating Volt Boot: DRAM decay is correctable, SRAM's is not)\n",
		r.TempC, r.OffTime, r.ScheduleByteDecayPct, verdict(r.KeyRecovered),
		verdict(r.SRAMControlRecovered))
}
