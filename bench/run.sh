#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# is started in (go's caches go there too, so nothing is written outside
# the checkout) and runs it with the arguments given.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
