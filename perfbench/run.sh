#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload stdlib-cs --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary,
# Go build cache, temporary files, the go command's local telemetry)
# stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOENV=off GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -goversion "$(go env GOVERSION)" -goroot "$(go env GOROOT)" "$@"
