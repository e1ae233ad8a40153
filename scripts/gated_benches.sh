#!/usr/bin/env bash
# The gated benchmarks, once: runs every benchmark that
# scripts/bench_allocs_baseline.txt holds a ceiling for, at the gate's fixed
# benchtimes, in the order the baseline lists them, and prints go test's
# output. check_bench_allocs.sh (make bench-gate) checks what it prints;
# bless_bench_allocs.sh (make bench-baseline) rewrites the baseline from it.
# Why each row is gated, and at what benchtime, is in check_bench_allocs.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

bench() { go test -run '^$' -bench "$1" -benchtime="$2" -benchmem "$3"; }
bench 'Throughput$|^BenchmarkProcessSpawn$|^BenchmarkEnvRand$' 100x ./internal/sim/
bench '^BenchmarkTraceEmit$' 1000x ./internal/trace/
bench '^BenchmarkIOPath' 4000x .
bench '^BenchmarkAppsMixedRound$' 20x .
bench '^BenchmarkPRPListFetchWalk128K$' 1000x ./internal/nvmet/
bench '^BenchmarkFioWorkerStart$' 100x ./internal/fio/
bench '^Benchmark(RigBuild|FleetHost)$' 20x .
