#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cosim-cells --seed 1 --seconds 40 --trace 0
#
# Every build product and Go cache lives under .bench_build, so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
