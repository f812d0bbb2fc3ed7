#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout of the repository:
#
#   bash perfbench/run.sh --workload icl-noise --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, its
# configuration, temporary files) and the benchmark's own output stay
# under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$src" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
