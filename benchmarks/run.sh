#!/usr/bin/env bash
# Builds ds2bench from source into .bench_build/ and runs it with the
# given arguments. Run from the root of a checkout:
#
#   bash benchmarks/run.sh --workload q1-local --seed 1 --seconds 18 --trace 0
#
# Everything the go tool writes (build cache, module cache, work
# directories, telemetry) is kept inside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C benchmarks -o "$build/ds2bench" ./ds2bench
exec "$build/ds2bench" "$@"
