#!/usr/bin/env bash
# Builds cmd/serve and the benchmark from source, then runs the benchmark.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-churn --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: the Go build cache, the compiler's temporary files and the Go
# command's own configuration and telemetry included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (cmd/serve and go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/serve" ./cmd/serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serve "$out/serve" -workdir "$out/runs" "$@"
