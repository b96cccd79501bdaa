#!/usr/bin/env sh
# run.sh builds the benchmark from the checkout's sources and runs it,
# passing every argument through:
#
#   sh perfbench/run.sh --workload paper_grid --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the span files of traced runs all go under .bench_build/, so the
# benchmark reads and writes nothing outside the checkout and needs no
# network (the module has no dependencies outside the repository).
set -eu

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
