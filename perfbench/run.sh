#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload pr-blaze --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and every temporary file the run
# makes stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout. The build fails, and so does this script, when the engine
# sources are not beside perfbench/.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .)

export TMPDIR="$build/tmp"
exec "$build/perfbench" "$@"
