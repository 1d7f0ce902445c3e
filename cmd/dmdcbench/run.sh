#!/usr/bin/env bash
# Builds dmdcbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash cmd/dmdcbench/run.sh --workload cell-detail --seed 0 --seconds 15 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, the binary, scratch directories and traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go build -C cmd/dmdcbench -o "$out/dmdcbench" .
exec "$out/dmdcbench" "$@"
