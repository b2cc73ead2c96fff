#!/usr/bin/env bash
# Builds the benchmark and runs it from the root of the checkout, passing every
# argument through. Everything the build writes (binary, Go build cache) stays
# in .bench_build/ inside the checkout. In a directory without the repository
# around it the build fails and so does this script.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$root/.bench_build/ftbench" .
exec "$root/.bench_build/ftbench" "$@"
