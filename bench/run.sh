#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments: the binary, the Go build cache and Go's temporary files all
# live under bench/out/build/ (git-ignored), so a run reads and writes
# nothing outside the checkout. `go run ./bench …` is the same program
# for interactive use.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
