#!/bin/sh
# CI gate: gofmt, vet, voltvet, the module goldens, build, race-enabled
# tests (the parallel runner's determinism tests raise GOMAXPROCS
# themselves, so a single-core CI machine still exercises multi-worker
# execution), a stress stage that runs the scheduling-dependent service
# tests 100 times each under -race (so a bound that holds only for some
# schedules fails the gate almost every time, not now and then), the
# differential oracles (among them, that a power trace ignores
# predecode, superblock and cache state, that a capture stops when its
# window is full, and that the ISA's op table decodes, renders and
# assembles as the hand-written per-format code it replaced did, with
# every program builder's words pinned), the catalog digests, a short fuzz pass over the
# byte decoders, the CPA attack and the job body, a one-iteration smoke
# over the micro-benchmarks and the allocation-free gates. Each
# stage that names its tests or benchmarks first checks that every name
# still matches one, so a rename cannot leave a stage running nothing.
# `make check` runs this script.
set -eu
cd "$(dirname "$0")/.."

# require_named KIND PATTERN PKG... fails unless every |-separated name
# in PATTERN matches a KIND function (Test or Benchmark) that
# `go test -list` reports for the packages. Without it, renaming a test
# leaves its -run or -bench stage matching nothing, and the stage passes.
require_named() {
	rn_kind=$1
	rn_pattern=$2
	shift 2
	rn_listed=$(go test -list '.*' "$@")
	rn_names=$(printf '%s\n' "$rn_listed" | grep "^$rn_kind" || true)
	rn_ifs=$IFS
	IFS='|'
	for rn_name in $rn_pattern; do
		IFS=$rn_ifs
		if ! printf '%s\n' "$rn_names" | grep -Eq -- "$rn_name"; then
			echo "error: '$rn_name' matches no $rn_kind function in $*" >&2
			exit 1
		fi
	done
	IFS=$rn_ifs
}

# run_named PATTERN PKG... runs the named tests once, after checking
# that every name matches one.
run_named() {
	require_named Test "$@"
	rn_run=$1
	shift
	go test -count=1 -run "$rn_run" "$@"
}

# fuzz_named NAME PKG fuzzes one target for 10s, after checking that
# the name matches one (-fuzz takes one target per package, so the
# pattern is anchored).
fuzz_named() {
	require_named Fuzz "$1" "$2"
	go test -run '^$' -fuzz "^$1\$" -fuzztime 10s "$2"
}

# bench_named PATTERN PKG... runs one iteration of the named benchmarks,
# after checking that every name matches one.
bench_named() {
	require_named Benchmark "$@"
	rn_bench=$1
	shift
	go test -run '^$' -bench "$rn_bench" -benchtime 1x "$@"
}

echo "==> gofmt -l (every Go file outside .bench_build/)"
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "error: gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> voltvet ./... (determinism / hot-path closure / snapshot / lock / error invariants; 15s budget)"
# Name every family explicitly so a family rename (or a typo that drops
# one) fails the gate instead of silently narrowing it.
vv_start=$(date +%s)
go run ./cmd/voltvet -checks det,map,hot,snap,locks,err ./...
vv_elapsed=$(( $(date +%s) - vv_start ))
echo "    voltvet finished in ${vv_elapsed}s"
if [ "$vv_elapsed" -gt 15 ]; then
	echo "error: voltvet took ${vv_elapsed}s, over its 15s CI budget; see BenchmarkVoltvetModule" >&2
	exit 1
fi

echo "==> module goldens (hot-path closure, exports no production code reaches, fields no production code sets)"
run_named 'TestHotpathClosureGolden|TestUnreachedExportsGolden|TestUnsetFieldsGolden' ./internal/lint/

echo "==> go build ./..."
go build ./...

echo "==> go test -race -short ./..."
go test -race -short ./...

echo "==> campaign service: full -race pass (queue, cache single-flight, cancellation)"
go test -race -count=1 ./internal/campaign/ ./internal/runner/ ./internal/api/

echo "==> result store: crash-safety + eviction under -race"
go test -race -count=1 ./internal/store/

echo "==> fabric: N-node harness under -race (sharded sweeps, restart, drain handback)"
go test -race -count=1 ./internal/fabric/
require_named Test 'TestFabric' ./internal/api/
go test -race -count=1 -run 'TestFabric' ./internal/api/

echo "==> scheduling-dependent service tests: 100 runs each under -race (single-flight coalescing, one job path standalone and on a fleet)"
require_named Test '^TestConcurrentIdenticalSubmissions$' ./internal/campaign/
go test -race -count=100 -run '^TestConcurrentIdenticalSubmissions$' ./internal/campaign/
require_named Test '^TestOneJobPath$' ./internal/fabric/
go test -race -count=100 -run '^TestOneJobPath$' ./internal/fabric/

echo "==> glitch engine: full -race pass (triggers, faults, snapshots refused while armed, cross-domain isolation)"
go test -race -count=1 ./internal/glitch/

echo "==> side-channel toolkit: full -race pass (trace capture, SPA, CPA)"
go test -race -count=1 ./internal/trace/ ./internal/sca/

echo "==> sca-cpa smoke (full 16-byte AES key recovery at the documented trace count)"
run_named 'TestSCACPARecoversKey' ./internal/experiments/

echo "==> differential oracles (rng jump/skip, deferred SRAM resamples drawn per page, deferred tag invalidates, restores that keep the generation only when they rewound nothing, on-demand DRAM retention and copy-on-write DRAM pages, touched-only LRU restores, L2 predecode, the five dispatch paths, a glitched core and their traces across snapshot restores, restores refused while observers are attached, warm-snapshot captures against cold and plain-fetch ones and the window stop, transformed CPA sums, the op table's decoder and disassembler against the per-format reference, the program builders' pinned words)"
run_named 'TestJump|TestSkipNormFloat32' ./internal/xrand/
run_named 'TestWordKernels|TestPending|TestSnapshot|TestSnapshotRestoreRetiresOnlyRewound|TestPageDrawsMatchWholeArray|TestDeferredInvalidateMatchesEagerLoop' ./internal/sram/
run_named 'TestRetentionChunks|TestLazyModule|TestGroundBytesDrawNoRetention|TestPartialTable|TestModuleSnapshot' ./internal/dram/
run_named 'TestDataWritesBumpOnlyFetchedLines|TestRestoreAuxMatchesFullCopy' ./internal/cache/
run_named 'TestSelfModifyingCodeThroughL2|TestDispatchPathsAgree' ./internal/soc/
run_named 'TestDumpPayloadFetchPathsAgree' ./internal/core/
run_named 'TestRestoreBeforeArmDetachesGlitcher|TestGlitcherAndCapturerShareCore' ./internal/glitch/
run_named 'TestRestoreBeforeArmDetachesCapturer' ./internal/trace/
run_named 'TestCaptureIgnoresDerivedState|TestCaptureStopsAtWindow' ./internal/experiments/
run_named 'TestCPAMatchesReference' ./internal/sca/
run_named 'TestDecodeMatchesReference|TestDisassembleMatchesReference' ./internal/isa/
run_named 'TestProgramWordsPinned' ./internal/core/

echo "==> catalog output digests (every experiment at seed 0x5EED, slow ones included)"
run_named 'TestCatalogDigests' ./internal/registry/

echo "==> fuzz the byte decoders, the CPA attack, parameter canonicalization and the job body (10s per target)"
fuzz_named FuzzDecodeSet ./internal/trace/
fuzz_named FuzzDecodeDisassemble ./internal/isa/
fuzz_named FuzzAssemble ./internal/isa/
fuzz_named FuzzStoreReplay ./internal/store/
fuzz_named FuzzAttack ./internal/sca/
fuzz_named FuzzResolve ./internal/registry/
fuzz_named FuzzSubmitBody ./internal/api/

echo "==> benchmark smoke (1 iteration)"
bench_named 'ResolveDecay|PowerUpAll|FractionalHD|FractionOnes|SnapshotRestore' ./internal/sram/ ./internal/analysis/
bench_named 'RandJump' ./internal/xrand/
bench_named 'ModuleCaptureWriteRestore' ./internal/dram/
bench_named 'CPUStep|CacheAccessHit|CacheAccessMiss|OSWorkloadIPS' ./internal/soc/ ./internal/cache/ ./internal/kernel/
bench_named 'CPUStepGlitchDisarmed' ./internal/glitch/
bench_named 'CPUStepTraceDisarmed|CPUStepTraceArmed|RunQuantumTraceArmed' ./internal/trace/
bench_named 'CPACorrelate' ./internal/sca/
bench_named 'Figure7ColdBoot|Figure8OSScenario|Table4ArraySweep|TraceCapture1000|GlitchSearch' ./internal/experiments/

echo "==> allocation-free fast-path gates"
run_named 'StepSteadyStateZeroAlloc' ./internal/soc/
run_named 'StepGlitchDisarmedZeroAlloc' ./internal/glitch/
run_named 'StepTraceArmedZeroAlloc|StepTraceDisarmedZeroAlloc|RunQuantumTraceArmedZeroAlloc' ./internal/trace/
run_named 'AccessHitPathAllocFree|LineTransferAllocFree' ./internal/cache/
run_named 'MaterializeZeroAlloc' ./internal/sram/

echo "OK"
