#!/usr/bin/env bash
# CI smoke for the always-on telemetry layer: run `bmsctl fio` with timeline
# recording (1-in-64 sampling + worst-16 forensics) twice, serial and
# parallel. The Perfetto trace export must be byte-identical for any
# -parallel value, match the committed golden digest
# (goldens/timeline_smoke.sha256 — re-bless by running this script with
# BLESS=1 after an intentional timing or format change), and parse cleanly
# through the offline viewer (`bmsctl timeline`), whose summary must agree
# with the in-run one.
set -euo pipefail
cd "$(dirname "$0")/.."

golden=goldens/timeline_smoke.sha256
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

ARGS="-scheme bmstore -rw randrw -bs 4096 -iodepth 16 -numjobs 2 -runtime 30ms -runs 2 -sample 64 -slowest 16"

# shellcheck disable=SC2086 # ARGS is a deliberate word-split flag list
go run ./cmd/bmsctl fio $ARGS -parallel 1 -timeline -timeline-out "$tmp/serial.json" > "$tmp/serial.txt" 2>/dev/null
# shellcheck disable=SC2086
go run ./cmd/bmsctl fio $ARGS -parallel 2 -timeline -timeline-out "$tmp/parallel.json" > "$tmp/parallel.txt" 2>/dev/null

if ! cmp -s "$tmp/serial.json" "$tmp/parallel.json"; then
	echo "timeline smoke: Perfetto export diverges between -parallel 1 and -parallel 2" >&2
	exit 1
fi
if ! cmp -s "$tmp/serial.txt" "$tmp/parallel.txt"; then
	echo "timeline smoke: stdout (results + summary) diverges between -parallel 1 and -parallel 2" >&2
	diff "$tmp/serial.txt" "$tmp/parallel.txt" >&2 || true
	exit 1
fi

digest=$(sha256sum "$tmp/serial.json" | awk '{print $1}')
if [ "${BLESS:-0}" = "1" ]; then
	echo "$digest" > "$golden"
	echo "timeline smoke: blessed $golden = $digest"
fi
if [ ! -f "$golden" ]; then
	echo "timeline smoke: missing $golden (run with BLESS=1 to create it)" >&2
	exit 1
fi
want=$(cat "$golden")
if [ "$digest" != "$want" ]; then
	echo "timeline smoke: trace digest drifted:" >&2
	echo "  got  $digest" >&2
	echo "  want $want (goldens/timeline_smoke.sha256)" >&2
	echo "An intentional timing or format change is re-blessed with BLESS=1 $0" >&2
	exit 1
fi

# The exported trace must survive the offline round trip: bmsctl timeline
# reparses it and rebuilds the identical tail-attribution summary `bmsctl fio`
# printed from the live recorders.
go run ./cmd/bmsctl timeline "$tmp/serial.json" 0 > "$tmp/viewer.txt"
sed -n '/^timelines:/,$p' "$tmp/serial.txt" > "$tmp/summary_live.txt"
sed -n '/^timelines:/,$p' "$tmp/viewer.txt" > "$tmp/summary_offline.txt"
if ! cmp -s "$tmp/summary_live.txt" "$tmp/summary_offline.txt"; then
	echo "timeline smoke: offline viewer summary disagrees with the live one" >&2
	diff "$tmp/summary_live.txt" "$tmp/summary_offline.txt" >&2 || true
	exit 1
fi
if ! grep -q "worst-K record(s)" "$tmp/summary_live.txt"; then
	echo "timeline smoke: summary missing worst-K forensics" >&2
	exit 1
fi

echo "timeline smoke OK (trace sha256 $digest)"
