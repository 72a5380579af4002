#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload full-tables --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and trace files stay under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench.bin" .)
exec "$build/perfbench.bin" "$@"
