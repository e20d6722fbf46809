#!/usr/bin/env bash
# Builds the benchmark, and the simulator packages it links, from source
# into .bench_build/ at the repository root, then runs it with the given
# flags from the repository root. Every build product, cache and span file
# stays under .bench_build/. See bench/README.md for the flags.
#
#   bash bench/run.sh -workload all -seed 1
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

go -C "$root/bench" build -o "$out/vpir-benchmark" .
cd "$root"
exec "$out/vpir-benchmark" "$@"
