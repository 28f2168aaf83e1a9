#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, from the repository root:
#
#   bash bench/run.sh -workload dse-warm -seed 2
#
# The Go build cache, temporary files, configuration (and so the
# toolchain's telemetry counters) and the binary all stay in .bench_build/
# at the repository root, so nothing outside the tree is written.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/bench" build -buildvcs=false -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
