#!/usr/bin/env bash
# CI smoke for the crash-recovery subsystem: a fixed-seed crash-point sweep
# (every pipeline-stage boundary, fio verify + chaos oracle through
# recovery) run serial and parallel and at GOMAXPROCS 1/2/8. The report
# and the JSON export must be byte-identical across all of them, the
# verdict must be PASS, and the sweep digest must match the committed
# golden (goldens/crash_smoke.digest — re-bless by running this script
# with BLESS=1 after an intentional behaviour change). A failing crash
# point is printed by the report itself as an exact replay command
# (`bmsctl crash-sweep -seed S -point N`).
set -euo pipefail
cd "$(dirname "$0")/.."

golden=goldens/crash_smoke.digest
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

ARGS="-seed 1 -seeds 2"

# shellcheck disable=SC2086 # ARGS is a deliberate word-split flag list
GOMAXPROCS=1 go run ./cmd/bmsctl crash-sweep $ARGS -parallel 1 -json "$tmp/serial.json" > "$tmp/serial.txt" 2>/dev/null
# shellcheck disable=SC2086
GOMAXPROCS=2 go run ./cmd/bmsctl crash-sweep $ARGS -parallel 4 -json "$tmp/p2.json" > "$tmp/p2.txt" 2>/dev/null
# shellcheck disable=SC2086
GOMAXPROCS=8 go run ./cmd/bmsctl crash-sweep $ARGS -parallel 4 -json "$tmp/p8.json" > "$tmp/p8.txt" 2>/dev/null

for v in p2 p8; do
	if ! cmp -s "$tmp/serial.txt" "$tmp/$v.txt"; then
		echo "crash smoke: report diverges between serial and $v" >&2
		diff "$tmp/serial.txt" "$tmp/$v.txt" >&2 || true
		exit 1
	fi
	if ! cmp -s "$tmp/serial.json" "$tmp/$v.json"; then
		echo "crash smoke: JSON export diverges between serial and $v" >&2
		exit 1
	fi
done
if ! grep -q "verdict: PASS" "$tmp/serial.txt"; then
	echo "crash smoke: sweep did not verify clean (replay commands above each FAIL point):" >&2
	cat "$tmp/serial.txt" >&2
	exit 1
fi

digest=$(grep "^sweep digest:" "$tmp/serial.txt" | awk '{print $3}')
if [ "${BLESS:-0}" = "1" ]; then
	echo "$digest" > "$golden"
	echo "crash smoke: blessed $golden = $digest"
fi
if [ ! -f "$golden" ]; then
	echo "crash smoke: missing $golden (run with BLESS=1 to create it)" >&2
	exit 1
fi
want=$(cat "$golden")
if [ "$digest" != "$want" ]; then
	echo "crash smoke: sweep digest drifted:" >&2
	echo "  got  $digest" >&2
	echo "  want $want (goldens/crash_smoke.digest)" >&2
	echo "An intentional behaviour change is re-blessed with BLESS=1 $0" >&2
	exit 1
fi

# The JSON export must load in the offline viewer and agree on the verdict.
go run ./cmd/bmsctl crash "$tmp/serial.json" > "$tmp/viewer.txt"
if ! grep -q "verdict: PASS" "$tmp/viewer.txt"; then
	echo "crash smoke: offline viewer disagrees with the live verdict" >&2
	cat "$tmp/viewer.txt" >&2
	exit 1
fi

echo "crash smoke OK (sweep digest $digest)"
