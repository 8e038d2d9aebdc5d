#!/usr/bin/env bash
# Builds the perfbench binary from this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload accel-cold --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and scratch files stay under
# .bench_build/ in the repository root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
