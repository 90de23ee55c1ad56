#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload report-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporaries, the binary)
# stays under .bench_build in the checkout; the toolchain is never
# downloaded.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# XDG_CONFIG_HOME moves the go command's settings and telemetry counters
# into the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
