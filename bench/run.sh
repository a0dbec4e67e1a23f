#!/usr/bin/env bash
# Builds the benchmark from source and runs it in the foreground.
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The binary is built into .bench_build/ at the root of the checkout and then
# replaces this shell through exec: one process, no `go run` child to outlive
# a killed parent. Everything the go command writes — build cache, work
# directory, telemetry counters, GOPATH — is pointed into .bench_build/ too,
# so nothing is written outside the checkout. Outside a checkout of the
# module `go build` fails and the script exits non-zero without printing a
# result.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOPATH="$PWD/$out/gopath" \
	XDG_CONFIG_HOME="$PWD/$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$out/benchmark" ./bench
exec "$out/benchmark" -out "$out" "$@"
