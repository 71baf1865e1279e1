#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark (see main.go). The build
# output, Go build cache and temporary files stay in the build directory
# (CARGO_TARGET_DIR if set, else .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/gocache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off

(cd "$root/ilbench" && go build -o "$build/ilbench" .) >&2
exec "$build/ilbench" "$@"
