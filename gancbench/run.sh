#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash gancbench/run.sh --workload serve-read --seed 1 --seconds 12 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/gancbench" && go build -o "$out/gancbench-bin" .)
exec "$out/gancbench-bin" "$@"
