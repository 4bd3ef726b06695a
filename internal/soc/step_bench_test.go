package soc

import "testing"

// steppingSoC boots a cached, never-halting load/increment/store loop and
// warms it until the execution state is steady: instruction lines resident
// in the L1I, the data line resident in the L1D, the TLB slot memoized.
// Step then exercises the plain reference path — an L1I hit fetch and a
// decode, a zero-copy cache hit load, a zero-copy hit store — with no
// misses.
func steppingSoC(tb testing.TB) *SoC {
	s, _ := poweredSoC(tb, BCM2711(), Options{})
	words := mustAsm(tb, PayloadBase, `
        LDIMM X1, #0x100000
loop:   LDR X2, [X1]
        ADDI X2, X2, #1
        STR X2, [X1]
        B loop
    `)
	if err := s.Boot(&BootImage{Words: words, EnableCaches: true}); err != nil {
		tb.Fatal(err)
	}
	cpu := s.Cores[0].CPU
	for i := 0; i < 256; i++ {
		if err := cpu.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// BenchmarkCPUStep measures steady-state execution through cpu.Step and
// reports throughput in instructions per second: every op is one
// retired instruction of a cache-hit load/store loop. Step is the plain
// fetch-and-decode reference the dispatch oracles compare against; no
// experiment runs it, since RunCoreQuantum dispatches every core in
// superblocks (BenchmarkRunQuantumTraceArmed and
// BenchmarkRunQuantumGlitchArmed time that path).
func BenchmarkCPUStep(b *testing.B) {
	s := steppingSoC(b)
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

// TestStepSteadyStateZeroAlloc pins the allocation-free contract on the
// plain reference: once the loop is warm, CPU.Step with cache-hit loads
// and stores must not allocate at all. Its fetch, load, store and
// execute paths are the ones the superblock dispatcher's fallback and
// block loop use.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	s := steppingSoC(t)
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
		t.Fatalf("steady-state Step allocates %.1f times per instruction, want 0", allocs)
	}
}
