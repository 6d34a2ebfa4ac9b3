#!/usr/bin/env bash
# Builds the served-system benchmark from this checkout's source and runs
# it. Run from the repository root, for example:
#
#   bash servebench/run.sh --workload pairs --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: the Go build cache, the binary, the run's segment and
# shard files (removed when the run ends) and the traced run's spans.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" TMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$here" && go build -o "$build/servebench" .) >&2
exec "$build/servebench" "$@"
