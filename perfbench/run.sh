#!/usr/bin/env bash
# Builds the benchmark and the shardworker from source, then runs one
# benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload audit-mnist --seed 1 --seconds 10 --trace 0
#
# Every build artefact and Go cache lives under .bench_build/ in the
# current directory, so the benchmark reads and writes nothing outside
# the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOCACHE" "$GOMODCACHE" "$GOPATH" "$GOTMPDIR" "$XDG_CONFIG_HOME" "$out/bin"

cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/shardworker" repro/cmd/shardworker
cd "$root"

# Not exec'd: the benchmark reads its children's resource usage, which
# must not include the compilers above.
"$out/bin/perfbench" -worker-bin "$out/bin/shardworker" "$@"
