package glitch_test

import (
	"testing"

	"repro/internal/glitch"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
)

// steppingBench rebuilds internal/soc's steady-state stepping harness
// through the public API — a cached, never-halting load/increment/store
// loop, warmed until every line is resident — and hangs a glitcher off
// the core it steps. The glitcher goes through one arm/disarm cycle so
// the CPU has seen attach and detach, then stays disarmed; callers arm
// (or not) on top of that.
func steppingBench(tb testing.TB) (*soc.SoC, *glitch.Glitcher) {
	tb.Helper()
	env := sim.NewEnv()
	spec := soc.BCM2711()
	s, err := soc.New(env, spec, soc.Options{}, 0xC0FFEE)
	if err != nil {
		tb.Fatal(err)
	}
	power.NewBenchSupply("bench-core", spec.CoreVolts, 10).AttachTo(s.CoreDom)
	power.NewBenchSupply("bench-mem", spec.MemVolts, 10).AttachTo(s.MemDom)
	words, err := isa.Assemble(soc.PayloadBase, `
        LDIMM X1, #0x100000
loop:   LDR X2, [X1]
        ADDI X2, X2, #1
        STR X2, [X1]
        B loop
    `)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Boot(&soc.BootImage{Words: words, EnableCaches: true}); err != nil {
		tb.Fatal(err)
	}
	cpu := s.Cores[0].CPU
	g := glitch.New(s.CoreDom, cpu)
	g.Arm(glitch.Trigger{Kind: glitch.TriggerFetchAddr, Addr: 0xDEAD0000}, glitch.Pulse{}, 1)
	g.Disarm()
	for i := 0; i < 256; i++ {
		if err := cpu.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return s, g
}

// BenchmarkCPUStepGlitchDisarmed is BenchmarkCPUStep with the glitch
// engine present but disarmed: it times cpu.Step, the plain reference
// the dispatch oracles compare against, which experiments run only on
// a block miss. The
// acceptance bar: within noise of the plain BenchmarkCPUStep number —
// the disarmed hook is one nil check.
func BenchmarkCPUStepGlitchDisarmed(b *testing.B) {
	s, _ := steppingBench(b)
	cpu := s.Cores[0].CPU
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cpu.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// TestStepGlitchDisarmedZeroAlloc pins the disarmed-glitcher contract
// on the plain reference: steady-state Step with a
// constructed-and-disarmed glitcher allocates nothing.
func TestStepGlitchDisarmedZeroAlloc(t *testing.T) {
	s, _ := steppingBench(t)
	cpu := s.Cores[0].CPU
	var stepErr error
	allocs := testing.AllocsPerRun(10000, func() {
		if err := cpu.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Fatalf("disarmed-glitcher Step allocates %.1f times per instruction, want 0", allocs)
	}
}

// armedBench is steppingBench with the glitcher armed on a trigger
// address the loop never reaches, and the loop's superblocks formed:
// the state of every glitch trial's pre-trigger prefix, which the SoC
// dispatcher runs in blocks that re-validate after every instruction.
func armedBench(tb testing.TB) (*soc.SoC, *glitch.Glitcher) {
	tb.Helper()
	s, g := steppingBench(tb)
	g.Arm(glitch.Trigger{Addr: 0xDEAD0000}, glitch.Pulse{Width: 1, Depth: 0.5}, 1)
	if _, err := s.RunCoreQuantum(0, 256); err != nil { // form the blocks
		tb.Fatal(err)
	}
	return s, g
}

// BenchmarkRunQuantumGlitchArmed times the armed-glitcher block path:
// the warmed loop dispatched through RunCoreQuantum with a glitcher
// armed whose trigger never fires. One op is one retired instruction,
// so ns/op is ns per armed instruction.
func BenchmarkRunQuantumGlitchArmed(b *testing.B) {
	s, g := armedBench(b)
	defer g.Disarm()
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := s.RunCoreQuantum(0, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// TestRunQuantumGlitchArmedZeroAlloc pins the armed-glitcher contract
// on the block path: once the loop's superblocks are formed,
// RunCoreQuantum on a core whose glitcher is armed but has not fired
// allocates nothing, and leaves the glitcher armed and attached.
func TestRunQuantumGlitchArmedZeroAlloc(t *testing.T) {
	s, g := armedBench(t)
	defer g.Disarm()
	cpu := s.Cores[0].CPU
	start := cpu.Instret
	var runErr error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.RunCoreQuantum(0, 64); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 0 {
		t.Fatalf("armed-glitcher RunCoreQuantum allocates %.1f times per 64-instruction quantum, want 0", allocs)
	}
	if got, want := cpu.Instret-start, uint64(64*101); got != want || g.Fired() || cpu.Hooks == nil {
		t.Fatalf("retired %d of %d instructions, fired %v, hooks %v: the glitcher left the loop", got, want, g.Fired(), cpu.Hooks)
	}
}
