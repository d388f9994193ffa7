#!/usr/bin/env bash
# Builds the host-time benchmark from this checkout's sources and runs it
# with the given arguments (see perfbench/README.md). Everything the build
# and the run write stays under .bench_build/ in the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build"
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
