#!/usr/bin/env bash
# Builds the in-process planserved benchmark from the checkout it is run
# in and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sample-warm --seed 1 --seconds 10 --trace 0
#
# Every build product, cache, and span file goes under .bench_build/ in
# the current directory; nothing is written outside it, and nothing is
# read outside it apart from the Go toolchain and /proc/cpuinfo (the CPU
# model the run prints).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/planbench" .)
exec "$out/planbench" -spans-dir "$out" "$@"
