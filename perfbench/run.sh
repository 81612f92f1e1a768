#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload point-serve --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch files all stay under .bench_build/ in the
# checkout; nothing is downloaded (the module has no dependencies outside
# the repository).
set -euo pipefail
root=$(pwd)
test -f "$root/perfbench/go.mod" || { echo "run.sh: run from the repository root" >&2; exit 2; }
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOMODCACHE="$build/modcache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
