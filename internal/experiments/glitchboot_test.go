package experiments

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/glitch"
	"repro/internal/isa"
	"repro/internal/runner"
)

// glitchShot is one armed trial: the trigger, the pulse and the seed of
// its fault draws.
type glitchShot struct {
	trig  glitch.Trigger
	pulse glitch.Pulse
	seed  uint64
}

// glitchShots lists every shot the glitch campaigns fire at seed: each
// trial of the default glitch-search grid (6 per cell, the catalog's
// default), then each bypass scenario's control run and attempts, with
// the seeds GlitchSearchCtx and glitchScenario derive.
func glitchShots(seed uint64, rom *glitch.BootROM) []glitchShot {
	const trials = 6
	var shots []glitchShot
	i := 0
	for _, off := range GlitchSearchOffsets() {
		for _, w := range GlitchSearchWidths() {
			for _, d := range GlitchSearchDepths() {
				for k := 0; k < trials; k++ {
					shots = append(shots, glitchShot{
						trig:  glitch.Trigger{Addr: rom.HashDonePC},
						pulse: glitch.Pulse{Offset: off, Width: w, Depth: d},
						seed:  runner.SeedFor(seed, "glitch-search", i),
					})
					i++
				}
			}
		}
	}
	for _, sc := range []struct {
		name string
		pc   uint64
	}{{"check-skip", rom.CheckPC}, {"verify-bypass", rom.BranchPC}} {
		trig := glitch.Trigger{Addr: sc.pc}
		shots = append(shots, glitchShot{trig: trig, pulse: glitch.Pulse{Width: 1}, seed: seed})
		for i := 0; i < glitchAttempts; i++ {
			shots = append(shots, glitchShot{
				trig:  trig,
				pulse: glitch.Pulse{Width: 1, Depth: 0.5},
				seed:  runner.SeedFor(seed, "glitchboot-"+sc.name, i),
			})
		}
	}
	return shots
}

// glitchTrial is what one shot leaves behind for the comparison.
type glitchTrial struct {
	out     GlitchOutcome
	faults  []glitch.FaultRecord
	state   isa.CPUState
	regs    [31]uint64
	l1i, l2 cache.Stats
}

// observe records the rig after a classified shot. The classification
// reads the boot status through the L2, so the statistics are taken
// after it.
func (r *glitchRig) observe(out GlitchOutcome) glitchTrial {
	s := r.b.SoC
	cpu := s.Cores[0].CPU
	tr := glitchTrial{
		out:    out,
		faults: slices.Clone(r.g.Faults()),
		state:  cpu.CaptureState(),
		l1i:    s.Cores[0].L1I.Stats(),
		l2:     s.L2.Stats(),
	}
	for i := range tr.regs {
		tr.regs[i] = cpu.X(i)
	}
	return tr
}

// stepRun is run with the armed core stepped through cpu.Step, the
// plain reference, under the same budget and classification.
func (r *glitchRig) stepRun(sh glitchShot) GlitchOutcome {
	r.b.RestoreSnapshot(r.snap)
	r.g.Arm(sh.trig, sh.pulse, sh.seed)
	cpu := r.b.SoC.Cores[0].CPU
	var err error
	for n := uint64(0); !cpu.Halted && err == nil; n++ {
		if n == glitchRunBudget {
			err = &isa.RunawayError{PC: cpu.PC, Max: glitchRunBudget}
			break
		}
		err = cpu.Step()
	}
	r.g.Finish()
	return r.classify(err)
}

// TestGlitchTrialsMatchStepReference is the glitch campaigns'
// differential oracle. At three seeds, every shot glitch-search and the
// two bypass scenarios fire runs twice from the rig's snapshot: through
// glitchRig.run, which dispatches the armed core in superblocks, and
// through a cpu.Step loop. The outcome, the fault log, the core's state
// and registers at the halt and the L1I and L2 statistics must agree,
// and across the shots both runs must see lockdown, bypass and crash.
func TestGlitchTrialsMatchStepReference(t *testing.T) {
	for _, seed := range []uint64{3, 21, 0x5EED} {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			rig, err := newGlitchRig(seed)
			if err != nil {
				t.Fatal(err)
			}
			var seen [4]int
			for i, sh := range glitchShots(seed, rig.rom) {
				out, _ := rig.run(sh.trig, sh.pulse, sh.seed)
				got := rig.observe(out)
				want := rig.observe(rig.stepRun(sh))
				if got.out != want.out || !slices.Equal(got.faults, want.faults) {
					t.Fatalf("shot %d %+v: %v with faults %v; reference %v with %v",
						i, sh, got.out, got.faults, want.out, want.faults)
				}
				if got.state != want.state || got.regs != want.regs {
					t.Fatalf("shot %d %+v: core state %+v, reference %+v", i, sh, got.state, want.state)
				}
				if got.l1i != want.l1i || got.l2 != want.l2 {
					t.Fatalf("shot %d %+v: L1I stats %+v, L2 %+v; reference %+v, %+v",
						i, sh, got.l1i, got.l2, want.l1i, want.l2)
				}
				seen[out]++
			}
			if seen[GlitchLockdown] == 0 || seen[GlitchBypass] == 0 || seen[GlitchCrash] == 0 {
				t.Fatalf("outcomes %d lockdown / %d bypass / %d crash / %d hang: the shots miss an outcome",
					seen[GlitchLockdown], seen[GlitchBypass], seen[GlitchCrash], seen[GlitchHang])
			}
		})
	}
}
