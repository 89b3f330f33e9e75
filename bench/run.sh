#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it against the checkout in the
# current directory, which must be the repository root:
#
#   bash bench/run.sh --workload slab-ingest --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the benchmark binary and the quantiled binary it builds
# all live under .bench_build/, so a run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" -repo "$root" "$@"
