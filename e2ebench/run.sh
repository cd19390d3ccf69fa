#!/usr/bin/env bash
# Builds the harness inside the checkout and runs it with the given arguments.
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/e2ebench" .)
cd "$root"
exec "$build/e2ebench" -workdir "$build/work" "$@"
