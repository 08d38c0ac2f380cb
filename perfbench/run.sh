#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root with the benchmark's flags, for example:
#
#   bash perfbench/run.sh --workload ingest-catchup --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory in
# the current directory ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps telemetry
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --work "$build" "$@"
