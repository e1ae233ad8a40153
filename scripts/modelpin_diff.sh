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
#       observers still report the same thing.
#
# Neither line counts how the kernel ran the model: the model hash skips the
# `sim spawn`/`sim resume` records, and the export hash is taken with
# -obspin.noprocs, which leaves out the `sim` process counters, so a change
# that moves a step between a process and a callback can read 0 here. The
# export pin's committed constants still hold those counters.
#
# The pinned seeds and the goldens do not see a restructuring that is neutral
# "unless two events coincide" (one rig in a hundred, PR 18's lesson); a few
# hundred seeds do, at ~0.1 s per rig.
#
# REF is unpacked with `git archive` into a temporary directory — no worktree
# is registered, nothing is left behind — and this tree's pin tests are copied
# over it, so both sides run the same rigs, including ones REF never had,
# against their own code (the tests use only API both sides have). Exit
# status: 0 when no rig differs, 1 when any does (the differing lines are
# printed), 2 when a side failed to run.
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
    (cd "$1" && go test . -count=1 -timeout 60m -run "$tests" -v -args -modelpin.seeds="$seeds" -obspin.noprocs) >"$2.log" 2>&1 || true
    sed -nE 's/.*: (.* seed [0-9]+ (records:hash|export:sha256) .*)$/\1/p' "$2.log" | sort -u >"$2"
    for kind in records:hash export:sha256; do
        if ! grep -q " $kind " "$2"; then
            echo "modelpin-diff: no $kind lines from $1:" >&2
            tail -n 20 "$2.log" >&2
            exit 2
        fi
    done
}
hashes . "$tmp/here"
hashes "$tmp/ref" "$tmp/there"

# One verdict per kind, so "the model held and the observers moved" reads as
# that.
status=0
for kind in records:hash export:sha256; do
    grep " $kind " "$tmp/here" >"$tmp/here.kind"
    grep " $kind " "$tmp/there" >"$tmp/there.kind"
    rigs=$(wc -l <"$tmp/here.kind")
    if diff "$tmp/there.kind" "$tmp/here.kind" >"$tmp/diff"; then
        echo "modelpin-diff: $kind: 0 of $rigs rigs differ from $ref (seeds 1..$seeds and the pinned three)"
        continue
    fi
    differing=$(grep -c '^>' "$tmp/diff" || true)
    echo "modelpin-diff: $kind: $differing of $rigs rigs differ from $ref (< $ref, > this tree):" >&2
    cat "$tmp/diff" >&2
    status=1
done
exit $status
