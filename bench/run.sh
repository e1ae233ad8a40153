#!/usr/bin/env bash
# The benchmark's entry point for the driver (BENCHMARK.json "command"):
# builds ./bench from source into .bench_build/ and runs it with the given
# arguments. Everything Go writes — build cache, module path, telemetry —
# is pointed inside the checkout, so a run leaves nothing outside it.
#
#   bash bench/run.sh --workload rand4k --seed 1 --seconds 10 --trace 0
#
# People can as well `go run ./bench` (see bench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f go.mod ] || [ ! -d internal/sim ]; then
	echo "bench: this directory holds the benchmark but not the simulator it measures" >&2
	exit 3
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bmbench" ./bench
exec "$out/bmbench" "$@"
