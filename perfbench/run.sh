#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# flags (--workload, --seed, --seconds, --trace). Run it from the root of the
# checkout; every build product stays under .bench_build there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
