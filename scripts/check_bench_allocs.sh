#!/usr/bin/env bash
# Alloc-regression gate for the simulation hot paths.
#
# Runs the kernel benchmarks (internal/sim: scheduler throughput at 64 and
# at 4096 pending entries, process-sleep throughput, process spawn) and the
# end-to-end I/O path benchmarks (root package: BenchmarkIOPathThroughput
# bare at QD 8, the same loop 512 deep where commands queue for a die, at
# 128 KiB per I/O where every command carries a PRP list, with payload
# capture on and real bytes written and read back (a block of data, and a
# write-ahead log's mostly zero block), and under each
# thing the gates attach — a digest tracer, an armed fault injector, sampled
# timelines, the verify campaign's recovering driver with its command
# timeouts armed) with -benchmem
# and compares each benchmark's allocs/op against the committed baseline in
# scripts/bench_allocs_baseline.txt. The kernel free-lists events and pools
# process coroutines, the fused data path pools every per-command carrier,
# and the Schedule fast path allocates nothing, so the baselines are 0
# allocs/op (2 for a spawned process: the Proc and its Done event); any
# change that reintroduces a per-event or per-I/O allocation fails this
# gate. Re-bless intentional changes with `make bench-baseline`.
#
# Above the block path, BenchmarkAppsMixedRound (root package) runs what
# Fig. 14 and the repo benchmark's apps-mixed run — kvstore + YCSB-A and
# minidb + sysbench guests with payload capture on, one 20 ms round per op —
# and is pinned at its measured allocs/op plus 5 %: the application tier
# allocates by design (page buffers, the engines' own copies), so its
# ceiling guards against a per-row or per-record allocation coming back,
# not against any.
#
# The I/O path benchmarks also report events/op — kernel events fired per I/O
# over the timed region — and a baseline row with a third column pins that
# too. The simulation is seeded and the benchtime fixed, so the number is
# exact: it moves only when the data path fires a different number of events
# per command, which is what the gate is for (a fusion undone, an observer or
# a fault probe that starts scheduling).
#
# BenchmarkTraceEmit (internal/trace) folds one keyed record with an empty
# detail into a digest tracer, what every traced rig pays per record: 0.
#
# Three rows guard what a 128 KiB command and a phase boundary cost off the
# kernel: BenchmarkPRPListFetchWalk128K (internal/nvmet: one command's
# PRP-list work on one face of the card — miss, fetch over a real root
# complex, hit, release — 0), BenchmarkEnvRand (internal/sim: a named random
# stream and its first draws — 1, a 96-byte sim.Rand with no register
# yet) and BenchmarkFioWorkerStart (internal/fio: one Run of a
# 1 × QD 64 spec that ends inside the first I/O, i.e. 64 worker start-ups —
# at its measured count, ~2 per worker: two bound callbacks, the worker
# holding its stream in place). A register is one allocation of 4 864
# bytes, so these two rows also pin B/op, a baseline row's fourth column
# ("-" in the third where no events/op is gated), at the measured value
# plus 5 %: B/op takes in the runtime's own stray bytes. So does
# BenchmarkIOPathRecoveringThroughput, at 0: its per-attempt CmdTimeout
# timer is a pooled record, and one allocated per attempt shows there.
#
# BenchmarkRigBuild (root package) builds what the repo benchmark builds
# before its first I/O — a 4-SSD testbed, a namespace per SSD and four
# attached tenant drivers — once per op, and is pinned like the application
# round, at its measured allocs/op plus 5 %: what a fleet pays once per host.
# BenchmarkFleetHost (root package) runs one whole host of the repo
# benchmark's fleet-rollout — that rig, its tenant's I/O through a firmware
# hot-upgrade, the health gate — and is pinned at its measured allocs/op and
# B/op plus 5 %: a firmware image copied whole per chunk or per host shows in
# its B/op.
#
# The benchmarks and their benchtimes are listed once, in
# scripts/gated_benches.sh, which the bless script runs too. Short fixed
# benchtimes keep the gate cheap: Go counts allocations exactly
# (no sampling), so a short run is deterministic. The only artifact is
# one-time warm-up cost showing through the per-op average; the committed
# baselines account for it. The I/O path benchmarks run 4000x so their fixed
# per-batch setup (one worker process per queue slot, 512 of them for the
# deep queue) amortises to 0. The application round runs 20x after an untimed
# load and warm round; the simulation is deterministic, so the count repeats.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=scripts/bench_allocs_baseline.txt
out=$(bash scripts/gated_benches.sh)
echo "$out"

status=0
# ceiling NAME UNIT MAX checks the unit NAME reports (events/op, B/op)
# against MAX, one of the baseline's optional columns; "-" or no column
# gates nothing.
ceiling() {
    local name=$1 unit=$2 max=${3:--} got
    [ "$max" != - ] || return 0
    got=$(printf '%s\n' "$out" | awk -v n="$name" -v u="$unit" '{ b = $1; sub(/-[0-9]+$/, "", b) } b == n { for (i = 2; i < NF; i++) if ($(i+1) == u) print $i }')
    if [ -z "$got" ]; then
        echo "bench-gate: benchmark $name reported no $unit" >&2
        status=1
    elif awk -v g="$got" -v a="$max" 'BEGIN { exit !(g + 0 > a + 0) }'; then
        echo "bench-gate: FAIL $name $unit = $got, baseline $max" >&2
        status=1
    else
        echo "bench-gate: ok   $name $unit = $got (baseline $max)"
    fi
}

while read -r name allowed events bytes; do
    case "$name" in ''|\#*) continue ;; esac
    # Exact name, with or without go test's -<procs> suffix: a prefix match
    # would count BenchmarkFoo and BenchmarkFooBar under one baseline line.
    got=$(printf '%s\n' "$out" | awk -v n="$name" '{ b = $1; sub(/-[0-9]+$/, "", b) } b == n {print $(NF-1)}')
    if [ -z "$got" ]; then
        echo "bench-gate: benchmark $name did not run" >&2
        status=1
        continue
    fi
    if [ "$got" -gt "$allowed" ]; then
        echo "bench-gate: FAIL $name allocs/op = $got, baseline $allowed" >&2
        status=1
    else
        echo "bench-gate: ok   $name allocs/op = $got (baseline $allowed)"
    fi
    ceiling "$name" events/op "$events"
    ceiling "$name" B/op "$bytes"
done < "$baseline"
exit $status
