#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source into .bench_build
# in the checkout, then run it with the driver's arguments. The Go caches and
# the build's temporary files are kept inside the checkout too, so a run
# writes nothing outside it.
set -euo pipefail
if [ ! -f go.mod ]; then
  echo "benchmark/run.sh: no go.mod in $PWD: the program is not in this checkout" >&2
  exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local
# With a fresh config directory the go command starts a detached telemetry
# child that outlives the run; the mode file turns it off, so that every
# process a run starts has ended when the run returns.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
