#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the Go toolchain writes (build cache, temp files, the
# binary) goes under benchmark/out, so a run touches nothing outside the
# checkout and needs no network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/benchmark" .
exec "$out/benchmark" "$@"
