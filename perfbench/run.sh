#!/usr/bin/env bash
# Builds the serving-path benchmark from this checkout's source and runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload remote_t1 --seed 7 --seconds 20 --trace 0
#
# Every build product and cache stays under .bench_build/ in the
# checkout; reports and spans go to .bench_out/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOTELEMETRY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
