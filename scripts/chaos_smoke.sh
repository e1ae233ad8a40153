#!/usr/bin/env bash
# CI smoke for the chaos-campaign subsystem: run a fixed-seed campaign —
# seeded fault schedules (benign and data-hazard regimes) under the
# write-then-verify workload — twice, serial and parallel. The campaign must
# come back green (every invariant intact), actually exercise the hazard
# detectors (nonzero caught violations across the campaign), and print a
# byte-identical report and digest for any -parallel value. On a red
# campaign the report already names each failing seed with its
# copy-pasteable `bmsctl chaos <seed>,1` replay; it is echoed here so the
# CI log carries the recipe.
set -euo pipefail

CAMPAIGN='1,12'

if ! out_serial=$(go run ./cmd/bmsctl chaos -parallel 1 "$CAMPAIGN" 2>/dev/null); then
	echo "chaos campaign failed; failing seeds and replay commands:" >&2
	echo "$out_serial" >&2
	echo "replay any failing seed with: go run ./cmd/bmsctl chaos <seed>,1" >&2
	exit 1
fi
if ! out_parallel=$(go run ./cmd/bmsctl chaos -parallel 4 "$CAMPAIGN" 2>/dev/null); then
	echo "chaos campaign failed under -parallel 4:" >&2
	echo "$out_parallel" >&2
	exit 1
fi

if [ "$out_serial" != "$out_parallel" ]; then
	echo "chaos campaign diverges between -parallel 1 and -parallel 4:" >&2
	echo "--- serial ---" >&2
	echo "$out_serial" >&2
	echo "--- parallel ---" >&2
	echo "$out_parallel" >&2
	exit 1
fi

echo "$out_serial"

if ! echo "$out_serial" | grep -q 'verdict: PASS'; then
	echo "campaign did not report a PASS verdict" >&2
	exit 1
fi
if ! echo "$out_serial" | grep -Eq 'viol=[1-9]' ; then
	echo "no hazard was caught anywhere in the campaign — detectors unexercised" >&2
	exit 1
fi
if ! echo "$out_serial" | grep -q 'campaign digest: '; then
	echo "campaign printed no digest" >&2
	exit 1
fi
echo "chaos smoke OK"
