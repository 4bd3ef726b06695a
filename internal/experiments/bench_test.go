package experiments

import (
	"context"
	"testing"
)

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
// suite; it exercises the SRAM physics kernels, the dump payload's
// L2-predecoded extraction loop and the analysis-side element matching
// together. It draws no DRAM retention: every byte the post-cycle code
// reads before writing it is still at its ground value.
func BenchmarkTable4ArraySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Table4(testSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlitchSearch times the default Monte-Carlo glitch campaign:
// 81 (offset × width × depth) cells × 6 trials, each trial a snapshot
// restore + armed boot of the secure-boot ROM. In a CPU profile of 200
// iterations on a 2-vCPU VM, the trials are 53% (armed stepping 36%,
// restores 13%, two thirds of that the SRAM arrays' dirty pages) and
// the per-worker rig builds 35% (board construction 20%, mostly
// allocating and zeroing the cache arrays' words, which the rigs never
// draw; snapshot capture 11%, mostly copying SRAM words). DRAM and the
// cache LRU clocks are under 3% each, since DRAM holds only the pages
// something wrote, ground-filled at memory speed, and an LRU restore
// rewinds only the entries a trial touched. Before, building, copying
// and restoring whole DRAM images and LRU clocks took half the time.
func BenchmarkGlitchSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := glitchSearch(testSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceCapture1000 times trace-capture at fault-sca's shape:
// 1000 traces, a 256-sample window and noise sigma 1. Each trial is a
// snapshot restore and one armed run, in superblocks, that stops when
// the window is full, 256 of the victim's 1,491 instructions. The rig's
// snapshot is taken after one unarmed victim run, and restores keep the
// predecode entries and L1I lines no trial rewinds, so trials neither
// refetch nor refill the victim's code. Building each worker's rig
// accounts for most of the allocation. In CPU profiles of 2 × 150
// iterations on a 2-vCPU VM, the trials are 61% (exec 29%, noise 10%,
// restores 6%, fetch path 4%) and the rig builds 33%: SRAM page draws
// 14%, all of them at build, since a rig draws only the tag and data
// pages it touches and its warm-up run touches every page a trial does;
// the VideoCore's junk bytes 8.5%; snapshot capture 3%; `board.New`
// 2.5%.
func BenchmarkTraceCapture1000(b *testing.B) {
	key, err := ParseSCAKey(SCADefaultKey)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TraceCaptureCtx(context.Background(), testSeed, 1000, 256, 1, key); err != nil {
			b.Fatal(err)
		}
	}
}
