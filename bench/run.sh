#!/usr/bin/env bash
# Entry point the benchmark driver calls (BENCHMARK.json "command"): builds
# the benchmark inside the checkout and runs it with the given flags.
# Everything the Go toolchain writes stays under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it. By hand,
# `go run ./bench ...` from the repository root does the same with your own
# build cache.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/waldo-server ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a waldo checkout (go.mod, cmd/, internal/ are missing)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" # go's env file and telemetry counters
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"
if [ -z "${HOME:-}" ]; then
	export HOME="$build/home" # the toolchain wants one for GOPATH
fi

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
