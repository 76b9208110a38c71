#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# checkout and runs it with the given arguments. Everything the build
# writes (binary, Go build cache) stays under .bench_build/, so a run
# reads and writes only inside the checkout. Run it from the repository
# root: bash benchmark/run.sh [flags].
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/paraleon-bench" .)
exec "$build/paraleon-bench" "$@"
