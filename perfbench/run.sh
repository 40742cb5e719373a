#!/usr/bin/env bash
# Builds escaped and the benchmark from this checkout, then runs the
# benchmark. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload hier-churn --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off

go build -o "$out/escaped" ./cmd/escaped
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --escaped "$out/escaped" --work "$out/work" "$@"
