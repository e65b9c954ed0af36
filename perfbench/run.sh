#!/usr/bin/env bash
# Builds the benchmark from source in the checkout it is run from, then
# runs it with every argument passed on:
#
#   bash perfbench/run.sh --workload matrix-small --seed 0 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, Go's build cache and
# temporary files go under $CARGO_TARGET_DIR (default .bench_build), so
# the run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod \
	GOTMPDIR=$build/tmp TMPDIR=$build/tmp GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C perfbench -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" "$@"
