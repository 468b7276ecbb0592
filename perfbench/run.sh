#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root; arguments pass through, e.g.
#   bash perfbench/run.sh --workload cora-m3 --seed 1 --seconds 20 --trace 0
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout. The build fails, and the script exits non-zero without a
# result, when the program's sources are not beside the benchmark.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
