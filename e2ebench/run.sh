#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through:
#   bash e2ebench/run.sh --workload mst-random --seed 7 --seconds 20 --trace 0
# Run from the repository root. Build outputs, the Go caches and trace files
# stay under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" PPROF_TMPDIR="$out/pprof"
(cd "$root/e2ebench" && go build -o "$out/e2ebench-bin" .) >&2
exec "$out/e2ebench-bin" --out "$out/e2ebench" "$@"
