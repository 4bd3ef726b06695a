#!/bin/sh
# Builds the benchmark from source and runs it. Run it from the
# repository root:
#
#   sh perfbench/run.sh --workload fault-sca --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the working directory: the Go build cache, temporary files, the
# benchmark binary, fleet store directories, span dumps and the digest
# ledger.
set -eu
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
HOME="$out/home"
XDG_CONFIG_HOME="$out/home/.config"
XDG_CACHE_HOME="$out/home/.cache"
GOCACHE="$out/gocache"
GOTMPDIR="$out/tmp"
GOPATH="$out/home/go"
GOTOOLCHAIN=local
GOPROXY=off
GOFLAGS=-mod=readonly
GOWORK=off
export HOME XDG_CONFIG_HOME XDG_CACHE_HOME GOCACHE GOTMPDIR GOPATH GOTOOLCHAIN GOPROXY GOFLAGS GOWORK
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
