#!/usr/bin/env bash
# Builds the benchmark from the sources next to this script and runs it from
# the repository root with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload train-alex --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain and the benchmark write (build cache, binary,
# scratch directories, traces) stays under .bench_build/ in the repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off

(cd "$root/benchmark" && go build -o "$out/gmreg-benchmark" .) >&2
cd "$root"
exec "$out/gmreg-benchmark" "$@"
