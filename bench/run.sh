#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given flags. Run from the repository root:
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
#
# Everything the build writes (binary, Go build cache, span traces)
# stays under .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$build/tilesim-bench" .)
exec "$build/tilesim-bench" "$@"
