#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# Go build cache included) and runs it with the given arguments. Run it
# from the root of the checkout: bash benchmark/run.sh --workload <name> ...
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOTELEMETRY=off
go build -C benchmark -o "$build/gminer-benchmark" .
exec "$build/gminer-benchmark" "$@"
