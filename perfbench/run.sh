#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload turbulence-30 --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and traced runs' span files go to
# .bench_build/ in the current directory, so nothing is written elsewhere.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in there too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
