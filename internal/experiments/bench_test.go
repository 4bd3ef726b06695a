package experiments

import "testing"

// End-to-end experiment benchmarks for the execution fast path. These
// run the same entry points the golden determinism tests pin, so any
// ns/op movement here is guaranteed to be architecturally invisible:
// the rendered outputs hash to the same golden values before and after.
//
// Baselines captured at commit 49bfb5d (pre fast-path refactor), on the
// single-core reference runner:
//
//	BenchmarkFigure7ColdBoot      753854025 ns/op
//	BenchmarkFigure8OSScenario    432805342 ns/op
//	BenchmarkTable4ArraySweep    7135027983 ns/op
//
// scripts/bench.sh re-runs these and appends the results to a BENCH_*.json
// perf record alongside the commit they were measured at.

// BenchmarkFigure7ColdBoot times the L1 I-cache extraction experiment:
// boot, AES key schedule into L1I-adjacent state, power cycle, extract.
func BenchmarkFigure7ColdBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Figure7(testSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8OSScenario times the OS-scenario experiment: a full
// boot plus a noisy OS workload on the modeled core, then the Volt Boot
// power-domain attack and L1D/L2 extraction. The victim's execution is a
// small share (it retires about 16k instructions; perfbench's traced
// split puts soc.exec under 3%), so this is the end-to-end indicator for
// the extraction path — booting and running the dump payload and reading
// the dump back — and for the SRAM draws the attack still reads.
func BenchmarkFigure8OSScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Figure8(testSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4ArraySweep times the per-array extraction-accuracy
// sweep: four array sizes, three reps each, every rep a fresh board
// running the full workload + attack. The heaviest experiment in the
// suite; it exercises the SRAM physics kernels, the DRAM retention
// model and the analysis-side element matching together.
func BenchmarkTable4ArraySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Table4(testSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlitchSearch times the default Monte-Carlo glitch campaign:
// 81 (offset × width × depth) cells × 6 trials, each trial a snapshot
// restore + armed boot of the secure-boot ROM. Armed per-instruction
// stepping is a minor share (about 12% in perfbench's traced split); the
// per-worker rig builds (board.new, snapshot capture) and the per-trial
// restores lead, so this tracks rig set-up and fork cost more than the
// fault-injection engine.
func BenchmarkGlitchSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GlitchSearch(testSeed); err != nil {
			b.Fatal(err)
		}
	}
}
