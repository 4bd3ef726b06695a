#!/bin/sh
# CI gate: gofmt, vet, voltvet, build, race-enabled tests (the parallel
# runner's determinism tests raise GOMAXPROCS themselves, so a
# single-core CI machine still exercises multi-worker execution), the
# differential oracles, the catalog digests, a short fuzz pass over the
# byte decoders, a one-iteration smoke over the micro-benchmarks and the
# allocation-free gates. `make check` runs this script.
set -eu
cd "$(dirname "$0")/.."

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
go test -race -count=1 -run 'TestFabric' ./internal/api/

echo "==> glitch engine: full -race pass (triggers, faults, snapshot compose, cross-domain isolation)"
go test -race -count=1 ./internal/glitch/

echo "==> side-channel toolkit: full -race pass (trace capture, SPA, CPA)"
go test -race -count=1 ./internal/trace/ ./internal/sca/

echo "==> sca-cpa smoke (full 16-byte AES key recovery at the documented trace count)"
go test -run 'TestSCACPARecoversKey' -count=1 ./internal/experiments/

echo "==> differential oracles (rng jump/skip, deferred SRAM resamples, on-demand DRAM retention, L2 predecode, the four dispatch paths, hook restores)"
go test -count=1 -run 'TestJump|TestSkipNormFloat32' ./internal/xrand/
go test -count=1 -run 'TestWordKernels|TestPending|TestSnapshot' ./internal/sram/
go test -count=1 -run 'TestRetentionChunks|TestLazyModule|TestGroundBytesDrawNoRetention|TestPartialTable|TestModuleSnapshot' ./internal/dram/
go test -count=1 -run 'TestDataWritesBumpOnlyFetchedLines' ./internal/cache/
go test -count=1 -run 'TestSelfModifyingCodeThroughL2|TestDispatchPathsAgree' ./internal/soc/
go test -count=1 -run 'TestDumpPayloadFetchPathsAgree' ./internal/core/
go test -count=1 -run 'TestRestoreBeforeArmDetachesGlitcher|TestGlitcherAndCapturerShareCore' ./internal/glitch/
go test -count=1 -run 'TestRestoreBeforeArmDetachesCapturer' ./internal/trace/

echo "==> catalog output digests (every experiment at seed 0x5EED, slow ones included)"
go test -count=1 -run 'TestCatalogDigests' ./internal/registry/

echo "==> fuzz the byte decoders (10s per target)"
# -fuzz takes one target per package, so each pattern is anchored.
go test -run '^$' -fuzz '^FuzzDecodeSet$' -fuzztime 10s ./internal/trace/
go test -run '^$' -fuzz '^FuzzDecodeDisassemble$' -fuzztime 10s ./internal/isa/
go test -run '^$' -fuzz '^FuzzAssemble$' -fuzztime 10s ./internal/isa/
go test -run '^$' -fuzz '^FuzzStoreReplay$' -fuzztime 10s ./internal/store/

echo "==> benchmark smoke (1 iteration)"
go test -run '^$' -bench 'ResolveDecay|PowerUpAll|FractionalHD|FractionOnes|SnapshotRestore' -benchtime 1x ./internal/sram/ ./internal/analysis/
go test -run '^$' -bench 'RandJump' -benchtime 1x ./internal/xrand/
go test -run '^$' -bench 'CPUStep|CacheAccessHit|CacheAccessMiss|OSWorkloadIPS' -benchtime 1x ./internal/soc/ ./internal/cache/ ./internal/kernel/
go test -run '^$' -bench 'CPUStepGlitchDisarmed' -benchtime 1x ./internal/glitch/
go test -run '^$' -bench 'CPUStepTraceDisarmed|CPUStepTraceArmed' -benchtime 1x ./internal/trace/
go test -run '^$' -bench 'Figure7ColdBoot|Figure8OSScenario|Table4ArraySweep' -benchtime 1x ./internal/experiments/

echo "==> allocation-free fast-path gates"
go test -run 'StepSteadyStateZeroAlloc' -count=1 ./internal/soc/
go test -run 'StepGlitchDisarmedZeroAlloc' -count=1 ./internal/glitch/
go test -run 'StepTraceArmedZeroAlloc|StepTraceDisarmedZeroAlloc' -count=1 ./internal/trace/
go test -run 'AccessHitPathAllocFree|LineTransferAllocFree' -count=1 ./internal/cache/
go test -run 'MaterializeZeroAlloc' -count=1 ./internal/sram/

echo "OK"
