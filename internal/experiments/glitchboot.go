package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/board"
	"repro/internal/glitch"
	"repro/internal/isa"
	"repro/internal/runner"
	"repro/internal/soc"
)

// Glitch scenario memory map (all in BCM2711 DRAM): the staged boot
// image, the ROM's boot-status word, and the proof word only the image
// itself writes.
const (
	glitchImageBase  = uint64(0x100000)
	glitchStatusAddr = uint64(0x4000)
	glitchProofAddr  = uint64(0x4800)
	// glitchRunBudget bounds one glitched boot. A clean verify runs
	// ~150 instructions; corrupted loop bounds can send the hash loop
	// across all of DRAM, and the budget turns those into fast,
	// classifiable hangs.
	glitchRunBudget = uint64(50_000)
)

// GlitchOutcome classifies one glitched secure-boot trial.
type GlitchOutcome uint8

const (
	// GlitchLockdown: verification caught the tampered image (the
	// no-glitch outcome, and the outcome of most ineffective pulses).
	GlitchLockdown GlitchOutcome = iota
	// GlitchBypass: the tampered image booted AND executed — boot status
	// says verified and the image's proof word is in memory.
	GlitchBypass
	// GlitchCrash: the core faulted (undefined instruction, wild load)
	// or halted without a coherent boot status.
	GlitchCrash
	// GlitchHang: the run budget expired without a halt.
	GlitchHang
)

func (o GlitchOutcome) String() string {
	switch o {
	case GlitchLockdown:
		return "lockdown"
	case GlitchBypass:
		return "bypass"
	case GlitchCrash:
		return "crash"
	default:
		return "hang"
	}
}

// glitchRig is one worker's secure-boot attack bench: a powered board
// whose mask ROM holds the verifier, with the tampered image staged in
// DRAM, core 0 reset at the ROM entry, and a glitcher on the core
// domain — all captured in a snapshot each trial forks from.
type glitchRig struct {
	b    *board.Board
	rom  *glitch.BootROM
	g    *glitch.Glitcher
	snap *board.Snapshot
}

// glitchBootROM assembles the rig's demo image and the secure-boot ROM
// that verifies it — pure functions of the fixed memory map, so callers
// that need only the ROM layout skip the board build.
func glitchBootROM() ([]uint32, *glitch.BootROM, error) {
	image, err := glitch.BuildDemoImage(glitchImageBase, glitchProofAddr)
	if err != nil {
		return nil, nil, err
	}
	rom, err := glitch.BuildBootROM(soc.ROMBase, image, glitchImageBase, glitchStatusAddr)
	if err != nil {
		return nil, nil, err
	}
	return image, rom, nil
}

func newGlitchRig(seed uint64) (*glitchRig, error) {
	b, _, err := newBoard(soc.BCM2711(), soc.Options{}, seed)
	if err != nil {
		return nil, err
	}
	s := b.SoC
	image, rom, err := glitchBootROM()
	if err != nil {
		return nil, err
	}
	if err := s.ProgramROM(rom.Words); err != nil {
		return nil, err
	}
	// Stage the image the attacker actually offers: one flipped bit in
	// the trailing data word, so the hash mismatches but a glitched-past
	// verifier still lands in executable code.
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
	rig := &glitchRig{
		b:   b,
		rom: rom,
		g:   glitch.New(s.CoreDom, cpu),
	}
	rig.snap = b.CaptureSnapshot()
	return rig, nil
}

// run forks the rig's snapshot, fires one shot, and classifies the
// boot. The returned fault log is valid until the next run.
func (r *glitchRig) run(t glitch.Trigger, p glitch.Pulse, seed uint64) (GlitchOutcome, []glitch.FaultRecord) {
	r.b.RestoreSnapshot(r.snap)
	r.g.Arm(t, p, seed)
	err := r.b.SoC.RunCore(0, glitchRunBudget)
	r.g.Finish()
	if err != nil {
		var runaway *isa.RunawayError
		if errors.As(err, &runaway) {
			return GlitchHang, r.g.Faults()
		}
		return GlitchCrash, r.g.Faults()
	}
	status := r.readU64(glitchStatusAddr)
	proof := r.readU64(glitchProofAddr)
	switch {
	case status == glitch.BootMagic && proof == glitch.ProofMagic:
		return GlitchBypass, r.g.Faults()
	case status == glitch.LockMagic:
		return GlitchLockdown, r.g.Faults()
	default:
		return GlitchCrash, r.g.Faults()
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

// GlitchScenarioResult is one reproduced bypass scenario: the trial
// index (≈ how often an attacker must pull the trigger) and the fault
// that did it, plus the outcome tally across all attempts.
type GlitchScenarioResult struct {
	Scenario  string
	TriggerPC uint64
	Attempts  int
	// SuccessAt is the first attempt index that bypassed (-1: none).
	SuccessAt int
	// Fault is the successful attempt's injected fault.
	Fault    glitch.FaultRecord
	Tally    [4]int // indexed by GlitchOutcome
	Lockdown bool   // the no-glitch control run locked down
}

// String renders the scenario in the experiments' report style.
func (r *GlitchScenarioResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Glitch scenario %s (trigger PC %#x)\n", r.Scenario, r.TriggerPC)
	fmt.Fprintf(&b, "  no-glitch control: lockdown=%v\n", r.Lockdown)
	if r.SuccessAt < 0 {
		fmt.Fprintf(&b, "  no bypass in %d attempts\n", r.Attempts)
	} else {
		fmt.Fprintf(&b, "  bypass on attempt %d: %s\n", r.SuccessAt, r.Fault)
	}
	fmt.Fprintf(&b, "  outcomes: %d lockdown / %d bypass / %d crash / %d hang\n",
		r.Tally[GlitchLockdown], r.Tally[GlitchBypass], r.Tally[GlitchCrash], r.Tally[GlitchHang])
	return b.String()
}

// glitchScenario repeatedly fires a one-instruction full-depth pulse at
// triggerPC — re-arming with fresh per-attempt seeds, like an attacker
// re-triggering until the fault lands — and reports the first attempt
// whose injected fault has the wanted kind AND bypasses the boot.
func glitchScenario(seed uint64, name string, attempts int,
	pcOf func(*glitch.BootROM) uint64, want isa.FaultKind) (*GlitchScenarioResult, error) {
	rig, err := newGlitchRig(seed)
	if err != nil {
		return nil, err
	}
	// Control: no glitch — the tampered image must lock down.
	ctl, _ := rig.run(glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: pcOf(rig.rom)},
		glitch.Pulse{Offset: 0, Width: 1, Depth: 0}, seed)
	res := &GlitchScenarioResult{
		Scenario:  name,
		TriggerPC: pcOf(rig.rom),
		Attempts:  attempts,
		SuccessAt: -1,
		Lockdown:  ctl == GlitchLockdown,
	}
	trig := glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: res.TriggerPC}
	// Full-depth single-instruction pulse: the rail floor is far below
	// the p == 1 threshold, so the target instruction always faults and
	// only the mode draw varies per attempt.
	pulse := glitch.Pulse{Offset: 0, Width: 1, Depth: 0.5}
	for i := 0; i < attempts; i++ {
		out, faults := rig.run(trig, pulse, runner.SeedFor(seed, "glitchboot-"+name, i))
		res.Tally[out]++
		if res.SuccessAt < 0 && out == GlitchBypass &&
			len(faults) == 1 && faults[0].Kind == want && faults[0].PC == res.TriggerPC {
			res.SuccessAt = i
			res.Fault = faults[0]
		}
	}
	return res, nil
}

// GlitchBootCheckSkip reproduces the check-skip bypass: skipping the
// verifier's final CMP inherits the Z flag still set from the hash
// loop's exit compare, so the mismatch branch falls through.
func GlitchBootCheckSkip(seed uint64) (*GlitchScenarioResult, error) {
	return glitchScenario(seed, "check-skip", 24,
		func(r *glitch.BootROM) uint64 { return r.CheckPC }, isa.FaultSkip)
}

// GlitchBootVerifyBypass reproduces the verify-bypass: the digest
// mismatch is fully computed, and the wrong-branch fault inverts the
// B.NE so the lock-down path is never taken.
func GlitchBootVerifyBypass(seed uint64) (*GlitchScenarioResult, error) {
	return glitchScenario(seed, "verify-bypass", 24,
		func(r *glitch.BootROM) uint64 { return r.BranchPC }, isa.FaultWrongBranch)
}

// GlitchCell is one (offset, width, depth) point of the search space
// with its Monte-Carlo outcome tally.
type GlitchCell struct {
	Offset uint64  `json:"offset"`
	Width  uint64  `json:"width"`
	Depth  float64 `json:"depth"`

	Bypass   int `json:"bypass"`
	Lockdown int `json:"lockdown"`
	Crash    int `json:"crash"`
	Hang     int `json:"hang"`
}

// GlitchSearchResult is the success map of a Monte-Carlo glitch
// parameter search against the secure-boot ROM.
type GlitchSearchResult struct {
	Board     string `json:"board"`
	TriggerPC uint64 `json:"trigger_pc"`
	// Trials is the per-cell trial count.
	Trials int          `json:"trials_per_cell"`
	Cells  []GlitchCell `json:"cells"`
}

// GlitchSearchOffsets is the default offset axis: instruction offsets
// from the hash-done trigger spanning the whole verify tail (the final
// CMP sits at offset 4, the B.NE at 5).
func GlitchSearchOffsets() []uint64 { return []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8} }

// GlitchSearchWidths is the default pulse-width axis (instructions).
func GlitchSearchWidths() []uint64 { return []uint64{1, 2, 4} }

// GlitchSearchDepths is the default pulse-depth axis (volts below the
// 0.80 V nominal): guardband-marginal, mid-ramp, and past the p == 1
// collapse threshold.
func GlitchSearchDepths() []float64 { return []float64{0.15, 0.30, 0.45} }

// GlitchSearchCtx Monte-Carlo searches the (offset × width × depth)
// space: every cell fires trials shots at the verify tail (trigger: the
// first fetch after the hash loop), each with a fresh derived seed, and
// tallies the outcomes. Deterministic: same seed and axes, same map,
// independent of GOMAXPROCS — trial outcomes are pure functions of the
// per-trial seed and are reassembled in index order.
func GlitchSearchCtx(ctx context.Context, seed uint64,
	offsets, widths []uint64, depths []float64, trials int) (*GlitchSearchResult, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("glitch search: trials must be positive, got %d", trials)
	}
	if len(offsets) == 0 || len(widths) == 0 || len(depths) == 0 {
		return nil, fmt.Errorf("glitch search: empty axis")
	}
	cells := make([]GlitchCell, 0, len(offsets)*len(widths)*len(depths))
	for _, off := range offsets {
		for _, w := range widths {
			for _, d := range depths {
				cells = append(cells, GlitchCell{Offset: off, Width: w, Depth: d})
			}
		}
	}
	ntasks := len(cells) * trials
	outs, err := runner.MapWithResource(ctx, ntasks, runtime.GOMAXPROCS(0),
		func() (*glitchRig, error) { return newGlitchRig(seed) },
		func(rig *glitchRig, i int) (GlitchOutcome, error) {
			c := &cells[i/trials]
			out, _ := rig.run(
				glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: rig.rom.HashDonePC},
				glitch.Pulse{Offset: c.Offset, Width: c.Width, Depth: c.Depth},
				runner.SeedFor(seed, "glitch-search", i))
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		c := &cells[i/trials]
		switch out {
		case GlitchBypass:
			c.Bypass++
		case GlitchLockdown:
			c.Lockdown++
		case GlitchCrash:
			c.Crash++
		default:
			c.Hang++
		}
	}
	_, rom, err := glitchBootROM()
	if err != nil {
		return nil, err
	}
	return &GlitchSearchResult{
		Board:     soc.BCM2711().Board,
		TriggerPC: rom.HashDonePC,
		Trials:    trials,
		Cells:     cells,
	}, nil
}

// String renders the success map: one grid per depth, offsets across,
// widths down, cells showing bypass counts ('.' for zero).
func (r *GlitchSearchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Glitch search success map (%s, trigger PC %#x, %d trials/cell)\n",
		r.Board, r.TriggerPC, r.Trials)
	// Recover the axes from the cell list (built in axis order).
	var offsets []uint64
	var widths []uint64
	var depths []float64
	for _, c := range r.Cells {
		if len(offsets) == 0 || c.Offset != offsets[len(offsets)-1] {
			offsets = appendUniqU64(offsets, c.Offset)
		}
		widths = appendUniqU64(widths, c.Width)
		depths = appendUniqF64(depths, c.Depth)
	}
	at := func(off, w uint64, d float64) *GlitchCell {
		for i := range r.Cells {
			c := &r.Cells[i]
			if c.Offset == off && c.Width == w && c.Depth == d {
				return c
			}
		}
		return nil
	}
	for _, d := range depths {
		fmt.Fprintf(&b, "  depth %.2fV (offset ->, width v)\n", d)
		fmt.Fprintf(&b, "    w\\o ")
		for _, off := range offsets {
			fmt.Fprintf(&b, "%3d", off)
		}
		b.WriteString("\n")
		for _, w := range widths {
			fmt.Fprintf(&b, "    %3d ", w)
			for _, off := range offsets {
				c := at(off, w, d)
				if c == nil || c.Bypass == 0 {
					b.WriteString("  .")
				} else {
					fmt.Fprintf(&b, "%3d", c.Bypass)
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

func appendUniqU64(xs []uint64, v uint64) []uint64 {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}

func appendUniqF64(xs []float64, v float64) []float64 {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}
