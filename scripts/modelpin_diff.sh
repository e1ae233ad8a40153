#!/usr/bin/env bash
# Timing-neutrality check against another commit (`make modelpin-diff
# REF=<commit> [SEEDS=400]`): run TestModelledBehaviourPinned's rigs at seeds
# 1..SEEDS on this tree and on REF, and compare the `records:hash` line each
# rig logs — every component record a traced rig emits, at its virtual
# nanosecond, folded into one number. The pinned seeds and the goldens do not
# see a restructuring that is neutral "unless two events coincide" (one rig
# in a hundred, PR 18's lesson); a few hundred seeds do, at ~0.1 s per rig.
#
# REF is unpacked with `git archive` into a temporary directory — no worktree
# is registered, nothing is left behind — and this tree's modelpin_test.go is
# copied over it, so both sides run the same rigs, including ones REF never
# had, against their own code. Exit status: 0 when no rig differs, 1 when any
# does (the differing lines are printed), 2 when a side failed to run.
set -euo pipefail
cd "$(dirname "$0")/.."

ref=${1:?usage: modelpin_diff.sh <commit> [seeds]}
seeds=${2:-400}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"
cp modelpin_test.go "$tmp/ref/modelpin_test.go"

# hashes <dir> <out>: the rig/seed/hash part of every logged line, sorted.
# The test's own verdict is not the point here (a moved pinned constant fails
# it on one side, and the diff below says so anyway); a run that logs
# nothing is.
hashes() {
    (cd "$1" && go test . -count=1 -timeout 60m -run '^TestModelledBehaviourPinned$' -v -args -modelpin.seeds="$seeds") >"$2.log" 2>&1 || true
    sed -n 's/.*: \(.* seed [0-9]* records:hash .*\)$/\1/p' "$2.log" | sort -u >"$2"
    if [ ! -s "$2" ]; then
        echo "modelpin-diff: no records:hash lines from $1:" >&2
        tail -n 20 "$2.log" >&2
        exit 2
    fi
}
hashes . "$tmp/here"
hashes "$tmp/ref" "$tmp/there"

rigs=$(wc -l <"$tmp/here")
if diff "$tmp/there" "$tmp/here" >"$tmp/diff"; then
    echo "modelpin-diff: 0 of $rigs rigs differ from $ref (seeds 1..$seeds and the pinned three)"
    exit 0
fi
differing=$(grep -c '^>' "$tmp/diff" || true)
echo "modelpin-diff: $differing of $rigs rigs differ from $ref (< $ref, > this tree):" >&2
cat "$tmp/diff" >&2
exit 1
