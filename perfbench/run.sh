#!/usr/bin/env bash
# Builds the benchmark, the expectd gateway and the rogue game from the
# source of this checkout, then runs the benchmark with the arguments given:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/expectd" repro/cmd/expectd
go build -o "$out/bin/rogue" repro/cmd/rogue
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
