#!/usr/bin/env bash
# Entry point named by ../BENCHMARK.json: builds the benchmark from source
# inside the checkout it is run from and executes it with the driver's
# arguments (--workload, --seed, --seconds, --trace). Everything the Go
# toolchain writes — build cache, temporary files, the binary — stays under
# .bench_build/, so the run reads and writes only inside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$build/gfcbench" ./benchmark
exec "$build/gfcbench" "$@"
