#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload find --seed 3 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under the build directory in the working tree
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache,
# the binary and the temporary files.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export TMPDIR="$build/tmp"

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
