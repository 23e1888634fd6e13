#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with every argument passed through. Run from the repository root:
#
#   bash perfbench/run.sh --workload mix8-tiered-observed --seed 1 --seconds 45 --trace 0
#
# Build outputs, the Go build cache, Go's own config and temporary files
# stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" . >&2
# The Go runtime hands freed heap pages back with MADV_FREE, not
# MADV_DONTNEED, so repeated set-ups and passes reuse mapped pages. On a
# VM the cost of faulting pages back in swings with the host's memory
# state (up to 4x for the same set-up), which would measure the host,
# not the program.
GODEBUG=madvdontneed=0 exec "$out/perfbench" "$@"
