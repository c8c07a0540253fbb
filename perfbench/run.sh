#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload composite-raw-inproc --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artefact (binary, Go build
# cache) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
