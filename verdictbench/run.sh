#!/usr/bin/env bash
# Builds verdictbench from the sources of the checkout it sits in and runs
# it from the checkout root with the given arguments, e.g.
#
#   bash verdictbench/run.sh --workload sweep-local --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, result files and traces all go under
# <checkout>/.bench_build, so nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/verdictbench" .)
cd "$root"
exec "$out/verdictbench" "$@"
