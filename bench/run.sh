#!/usr/bin/env bash
# Builds the rbcastd serving benchmark from source and runs it from the
# repository root, passing every argument through:
#
#   bash bench/run.sh --workload run-hit --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporaries, the toolchain's
# local telemetry counters, the binary) stays under .bench_build/ in the
# repository root. Build output goes to standard error so standard output
# carries only the benchmark's lines.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/bench" && go build -o "$out/rbcast-bench" .) >&2
cd "$root"
exec "$out/rbcast-bench" "$@"
