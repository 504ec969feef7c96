#!/usr/bin/env bash
# Builds the whole-path benchmark driver and runs it from the repository
# root, passing every argument through:
#
#   bash bench/run.sh --workload batch-text --seed 1 --seconds 20 --trace 0
#
# Everything the run builds or writes (Go build cache, binaries, inputs,
# results, traces, temporary files) stays under .bench_build/ at the
# repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go build -C bench -o "$out/bench-driver" .
exec "$out/bench-driver" -root "$root" "$@"
