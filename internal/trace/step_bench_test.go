package trace_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/trace"
)

// steppingBench mirrors internal/glitch's harness: a cached,
// never-halting load/increment/store loop warmed to steady state, with
// a trace capturer constructed against core 0. The capturer goes
// through one arm/disarm cycle so the CPU has seen attach and detach;
// callers arm (or not) on top of that.
func steppingBench(tb testing.TB, arena int) (*soc.SoC, *trace.Capturer) {
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
	c, err := trace.New(s, 0, arena)
	if err != nil {
		tb.Fatal(err)
	}
	c.Arm()
	c.Disarm()
	for i := 0; i < 256; i++ {
		if err := cpu.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return s, c
}

// BenchmarkCPUStepTraceDisarmed is BenchmarkCPUStep with the trace
// capturer present but disarmed. The acceptance bar: within noise of
// the plain BenchmarkCPUStep number — the disarmed hook is one nil
// check on the retire path and one on the bus path.
func BenchmarkCPUStepTraceDisarmed(b *testing.B) {
	s, _ := steppingBench(b, 1<<16)
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

// BenchmarkCPUStepTraceArmed measures the armed per-step cost: Hamming
// weights, rail reads, and the arena store, on top of the plain step.
// The arena is re-armed whenever it fills so the steady-state path
// (bounded store) is what dominates the measurement.
func BenchmarkCPUStepTraceArmed(b *testing.B) {
	const arena = 1 << 16
	s, c := steppingBench(b, arena)
	cpu := s.Cores[0].CPU
	c.Arm()
	defer c.Disarm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(arena-1) == 0 {
			c.Arm() // rewind the full arena; amortized to nothing
		}
		if err := cpu.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkRunQuantumTraceArmed is BenchmarkCPUStepTraceArmed
// dispatched the way a capture runs, through RunCoreQuantum, which runs
// a core with only a trace sink attached in superblocks. One op is one
// retired instruction, so ns/op is ns per armed instruction.
func BenchmarkRunQuantumTraceArmed(b *testing.B) {
	const arena = 1 << 16
	s, c := steppingBench(b, arena)
	c.Arm()
	defer c.Disarm()
	if _, err := s.RunCoreQuantum(0, 256); err != nil { // form the blocks
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(b.N-done, arena)
		c.Arm() // rewind the full arena
		if _, err := s.RunCoreQuantum(0, uint64(n)); err != nil {
			b.Fatal(err)
		}
		done += n
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkTraceCapture measures end-to-end capture throughput: one
// full AES-victim trial (restore-free straight run) per iteration,
// reported in samples per second.
func BenchmarkTraceCapture(b *testing.B) {
	var pt [16]byte
	s, v := victimSoC(b, 10, pt)
	c, err := trace.New(s, 0, v.RunLength())
	if err != nil {
		b.Fatal(err)
	}
	cpu := s.Cores[0].CPU
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Reset(v.Entry)
		c.Arm()
		if err := s.RunCore(0, uint64(v.RunLength())+8); err != nil {
			b.Fatal(err)
		}
		c.Disarm()
	}
	b.ReportMetric(float64(b.N*v.RunLength())/b.Elapsed().Seconds(), "samples/s")
}

// TestStepTraceDisarmedZeroAlloc pins the disarmed contract: steady-
// state Step with a constructed-and-disarmed capturer allocates
// nothing.
func TestStepTraceDisarmedZeroAlloc(t *testing.T) {
	s, _ := steppingBench(t, 1<<16)
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
		t.Fatalf("disarmed-capturer Step allocates %.1f times per instruction, want 0", allocs)
	}
}

// TestStepTraceArmedZeroAlloc pins the armed contract: the whole
// sample-emit path — retire probe, bus probe, Hamming arithmetic, rail
// reads, arena store — allocates nothing in steady state.
func TestStepTraceArmedZeroAlloc(t *testing.T) {
	s, c := steppingBench(t, 1<<16)
	cpu := s.Cores[0].CPU
	c.Arm()
	defer c.Disarm()
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
		t.Fatalf("armed-capturer Step allocates %.1f times per instruction, want 0", allocs)
	}
}

// TestRunQuantumTraceArmedZeroAlloc pins the armed contract on the
// block path: once the loop's superblocks are formed, RunCoreQuantum on
// a core with an armed capturer allocates nothing, and records one
// sample per instruction.
func TestRunQuantumTraceArmedZeroAlloc(t *testing.T) {
	s, c := steppingBench(t, 1<<16)
	c.Arm()
	defer c.Disarm()
	if _, err := s.RunCoreQuantum(0, 256); err != nil { // form the blocks
		t.Fatal(err)
	}
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
		t.Fatalf("armed-capturer RunCoreQuantum allocates %.1f times per 64-instruction quantum, want 0", allocs)
	}
	if got, want := len(c.Samples()), 256+64*101; got != want {
		t.Fatalf("captured %d samples over %d instructions", got, want)
	}
}
