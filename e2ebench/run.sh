#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags. Run from the repository root:
#
#   bash e2ebench/run.sh --workload http-keepalive --seed 1 --seconds 10 --trace 0
#
# Every build output (binary, Go build cache, span files) goes under
# $CARGO_TARGET_DIR if it is set, else under .bench_build/, in the
# current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOENV=off
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"

(cd "$here" && go build -buildvcs=false -o "$build/e2ebench" .)
exec "$build/e2ebench" --out "$build/e2ebench-spans" "$@"
