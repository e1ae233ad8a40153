#!/usr/bin/env bash
# Neutrality check against another commit (`make modelpin-diff REF=<commit>
# [SEEDS=400]`): run the two pin tests' rigs at seeds 1..SEEDS on this tree and
# on REF, and compare the line each rig logs.
#
#   TestModelledBehaviourPinned  `records:hash`   every component record a
#       traced rig emits, at its virtual nanosecond, folded into one number:
#       no modelled time moved;
#   TestObserverExportsPinned    `export:sha256`  the metrics JSON and CSV,
#       the span breakdown and the Perfetto timeline of an observed rig: the
#       observers still report the same thing;
#   bmsctl on each tree          `verbs:digest`   every digest line of
#       `fleet-run -hosts 8` at three seeds, `chaos 1,20` and `crash-sweep
#       -seeds 2`: the fleet host, verify campaign and crash rigs, which the
#       pin tests never build, still run the same simulation.
#
# No line here counts how the kernel ran the model: the model hash skips the
# `sim fire`/`spawn`/`resume` records, the export hash leaves out the `sim`
# process counters, and the trace digests fold no kernel record either, so a
# change that moves a step between a process and a callback reads 0 here. The
# pin tests hold the kernel's counts apart, as numbers.
#
# The pinned seeds and the goldens do not see a restructuring that is neutral
# "unless two events coincide" (one rig in a hundred, PR 18's lesson); a few
# hundred seeds do, at ~0.1 s per rig. The verbs take a few seconds.
#
# REF is unpacked with `git archive` into a temporary directory — no worktree
# is registered, nothing is left behind — and this tree's pin tests are copied
# over it, so both sides run the same rigs, including ones REF never had,
# against their own code (the tests use only API both sides have). Exit
# status: 0 when no rig or digest line differs, 1 when any does (the
# differing lines are printed), 2 when a side failed to run.
set -euo pipefail
cd "$(dirname "$0")/.."

ref=${1:?usage: modelpin_diff.sh <commit> [seeds]}
seeds=${2:-400}
pins=(modelpin_test.go obspin_test.go)
tests='^(TestModelledBehaviourPinned|TestObserverExportsPinned)$'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"
cp "${pins[@]}" "$tmp/ref/"

# hashes <dir> <out>: the rig/seed/hash part of every logged line, sorted.
# The tests' own verdict is not the point here (a moved pinned constant fails
# it on one side, and the diff below says so anyway); a test that logs
# nothing is.
hashes() {
    (cd "$1" && go test . -count=1 -timeout 60m -run "$tests" -v -args -modelpin.seeds="$seeds") >"$2.log" 2>&1 || true
    sed -nE 's/.*: (.* seed [0-9]+ (records:hash|export:sha256) .*)$/\1/p' "$2.log" | sort -u >"$2"
    for kind in records:hash export:sha256; do
        if ! grep -q " $kind " "$2"; then
            echo "modelpin-diff: no $kind lines from $1:" >&2
            tail -n 20 "$2.log" >&2
            exit 2
        fi
    done
}
# verbs <dir> <out>: build bmsctl in dir, run the verbs, and keep every line
# that carries a digest, prefixed with its command. A verb's verdict is not
# the point either (a failing run still prints its digests); a command that
# prints no digest line is.
verbs() {
    (cd "$1" && go build -o "$2.bmsctl" ./cmd/bmsctl) || exit 2
    : >"$2.verbs"
    for cmd in "fleet-run -hosts 8 -seed 1" "fleet-run -hosts 8 -seed 2" \
        "fleet-run -hosts 8 -seed 3" "chaos 1,20" "crash-sweep -seeds 2"; do
        # shellcheck disable=SC2086 # cmd is a word list
        "$2.bmsctl" $cmd 2>/dev/null >"$2.out" || true
        if ! grep -E 'digest|fnv64w:|sha256:' "$2.out" | sed "s/^/$cmd: /" >>"$2.verbs"; then
            echo "modelpin-diff: bmsctl $cmd in $1 printed no digest line" >&2
            exit 2
        fi
    done
}
hashes . "$tmp/here"
hashes "$tmp/ref" "$tmp/there"
verbs . "$tmp/here"
verbs "$tmp/ref" "$tmp/there"
grep -h . "$tmp/here.verbs" | sed 's/^/verbs:digest /' >>"$tmp/here"
grep -h . "$tmp/there.verbs" | sed 's/^/verbs:digest /' >>"$tmp/there"

# One verdict per kind, so "the model held and the observers moved" reads as
# that.
status=0
for kind in records:hash export:sha256 verbs:digest; do
    grep -E "(^| )$kind " "$tmp/here" >"$tmp/here.kind"
    grep -E "(^| )$kind " "$tmp/there" >"$tmp/there.kind"
    n=$(wc -l <"$tmp/here.kind")
    what="rigs differ from $ref (seeds 1..$seeds and the pinned three)"
    if [ "$kind" = verbs:digest ]; then
        what="digest lines differ from $ref"
    fi
    if diff "$tmp/there.kind" "$tmp/here.kind" >"$tmp/diff"; then
        echo "modelpin-diff: $kind: 0 of $n $what"
        continue
    fi
    differing=$(grep -c '^>' "$tmp/diff" || true)
    echo "modelpin-diff: $kind: $differing of $n ${what%% (*} (< $ref, > this tree):" >&2
    cat "$tmp/diff" >&2
    status=1
done
exit $status
