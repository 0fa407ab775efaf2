#!/usr/bin/env bash
# Builds backboned and the benchmark from the sources of the checkout it
# is run from, into .bench_build/ under that checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/backboned" || ! -f "$bench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/backboned and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
# Every byte the toolchain writes stays inside the checkout, and no
# module is ever fetched.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR" "$out/bin"

go build -buildvcs=false -o "$out/bin/backboned" ./cmd/backboned
(cd "$bench" && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --backboned "$out/bin/backboned" --out "$out" --spec "$root/BENCHMARK.json" "$@"
