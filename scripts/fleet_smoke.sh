#!/usr/bin/env bash
# CI smoke for the fleet deployment simulator: a small rolling hot-upgrade
# fleet run twice, serial and parallel. The report (stdout) and the JSON
# export must be byte-identical for any -parallel value, the fleet digest
# must match the committed golden (goldens/fleet_smoke.digest — re-bless by
# running this script with BLESS=1 after an intentional behaviour change),
# the rollout must PASS with zero tenant I/O errors, and the JSON must
# round-trip through the offline viewer (`bmsctl fleet`) to the identical
# report.
set -euo pipefail
cd "$(dirname "$0")/.."

golden=goldens/fleet_smoke.digest
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

ARGS="-hosts 8 -wave 4 -seed 1 -scale fast"

# shellcheck disable=SC2086 # ARGS is a deliberate word-split flag list
go run ./cmd/bmsctl fleet-run $ARGS -parallel 1 -json "$tmp/serial.json" > "$tmp/serial.txt" 2>/dev/null
# shellcheck disable=SC2086
go run ./cmd/bmsctl fleet-run $ARGS -parallel 4 -json "$tmp/parallel.json" > "$tmp/parallel.txt" 2>/dev/null

if ! cmp -s "$tmp/serial.txt" "$tmp/parallel.txt"; then
	echo "fleet smoke: report diverges between -parallel 1 and -parallel 4" >&2
	diff "$tmp/serial.txt" "$tmp/parallel.txt" >&2 || true
	exit 1
fi
if ! cmp -s "$tmp/serial.json" "$tmp/parallel.json"; then
	echo "fleet smoke: JSON export diverges between -parallel 1 and -parallel 4" >&2
	exit 1
fi
if ! grep -q "verdict: PASS" "$tmp/serial.txt"; then
	echo "fleet smoke: rolling upgrade did not pass the health gate:" >&2
	cat "$tmp/serial.txt" >&2
	exit 1
fi
if ! grep -q "errs 0," "$tmp/serial.txt"; then
	echo "fleet smoke: fleet SLO line reports tenant I/O errors" >&2
	exit 1
fi

digest=$(grep "^fleet digest:" "$tmp/serial.txt" | awk '{print $3}')
if [ "${BLESS:-0}" = "1" ]; then
	echo "$digest" > "$golden"
	echo "fleet smoke: blessed $golden = $digest"
fi
if [ ! -f "$golden" ]; then
	echo "fleet smoke: missing $golden (run with BLESS=1 to create it)" >&2
	exit 1
fi
want=$(cat "$golden")
if [ "$digest" != "$want" ]; then
	echo "fleet smoke: fleet digest drifted:" >&2
	echo "  got  $digest" >&2
	echo "  want $want (goldens/fleet_smoke.digest)" >&2
	echo "An intentional behaviour change is re-blessed with BLESS=1 $0" >&2
	exit 1
fi

# The JSON export must survive the offline round trip: bmsctl fleet
# re-renders the identical report from the exported Result alone.
go run ./cmd/bmsctl fleet "$tmp/serial.json" > "$tmp/viewer.txt"
if ! cmp -s "$tmp/serial.txt" "$tmp/viewer.txt"; then
	echo "fleet smoke: offline viewer report disagrees with the live one" >&2
	diff "$tmp/serial.txt" "$tmp/viewer.txt" >&2 || true
	exit 1
fi

echo "fleet smoke OK (fleet digest $digest)"
