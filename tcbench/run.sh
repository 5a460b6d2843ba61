#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the root of
# the repository:
#
#   bash tcbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write lands under .bench_build/ in the
# current directory: the Go build cache, the harness binary, the persistent
# stores the workloads create, and the span files of traced runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -trimpath -o "$build/tcbench" .)
exec "$build/tcbench" -workdir "$build" "$@"
