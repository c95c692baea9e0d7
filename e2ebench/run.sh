#!/usr/bin/env bash
# Builds ffsage's commands and the e2ebench harness from source into
# .bench_build/ under the current directory (the repository root), then
# runs the harness with the arguments given, e.g.
#
#   bash e2ebench/run.sh --workload paper-repro --seed 1 --seconds 15 --trace 0
#
# Every file the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/repro" ]]; then
	echo "run.sh: run from the root of an ffsage checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/" ./cmd/repro ./cmd/tournament ./cmd/agesrv ./cmd/mkworkload \
	./cmd/agefs ./cmd/seqbench ./cmd/hotbench ./cmd/layoutstat ./cmd/fsck >&2
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .) >&2

exec "$out/bin/e2ebench" -bin "$out/bin" -work "$out/work" "$@"
