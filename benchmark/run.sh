#!/usr/bin/env bash
# Entry point named by ../BENCHMARK.json. The benchmark is a Go module of its
# own inside the repository; this builds it and runs it from its directory,
# keeping every file the build and the run write under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")"
export GOCACHE="$PWD/out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o out/bin/benchmark .
exec out/bin/benchmark "$@"
