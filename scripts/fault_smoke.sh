#!/usr/bin/env bash
# CI smoke for the fault-injection subsystem: run `bmsctl fio` with injected
# faults (an SSD controller stall plus recurring slow media reads) twice,
# serial and parallel. The run must complete — the host driver's
# timeout/abort/retry machinery absorbs every fault — report a nonzero
# injected count, and print byte-identical results and trace digests for
# any -parallel value.
#
# A second case pins what a schedule the driver cannot absorb looks like: the
# only drive dropped for good fails tenant I/O, and `bmsctl fio` must say so in one
# line per run on stderr and exit 1 — no panic, no goroutine dump.
#
# A third pins the same schedule at `bmsctl fio`'s default 4 x QD 128, where the
# zombied CIDs of the timed-out attempts come to outnumber the ring's slots
# before any I/O has used up its retries: the wait for a slot is bounded by
# the command timeout like the wait for a CQE, so the I/O must fail the same
# clean way — it used to wedge the driver for good, so the case runs under
# `timeout`.
set -euo pipefail

SPEC='ssd-stall,t=10ms,dur=8ms;media-slow,nth=50,count=-1,dur=1ms'
ARGS="-scheme bmstore -rw randrw -iodepth 8 -numjobs 2 -runtime 30ms -runs 2 -trace-digest"

# shellcheck disable=SC2086 # ARGS is a deliberate word-split flag list
out_serial=$(go run ./cmd/bmsctl fio $ARGS -faults "$SPEC" -parallel 1 2>/dev/null)
# shellcheck disable=SC2086
out_parallel=$(go run ./cmd/bmsctl fio $ARGS -faults "$SPEC" -parallel 2 2>/dev/null)

if [ "$out_serial" != "$out_parallel" ]; then
	echo "faulted runs diverge between -parallel 1 and -parallel 2:" >&2
	echo "--- serial ---" >&2
	echo "$out_serial" >&2
	echo "--- parallel ---" >&2
	echo "$out_parallel" >&2
	exit 1
fi

echo "$out_serial"

if ! echo "$out_serial" | grep -Eq 'faults +: [1-9][0-9]* injected'; then
	echo "expected a nonzero injected-fault count" >&2
	exit 1
fi
# shellcheck disable=SC2086
if dead_err=$(go run ./cmd/bmsctl fio $ARGS -faults 'ssd-drop,t=5ms,target=PHLJ0000' -parallel 1 2>&1 >/dev/null); then
	echo "a run whose only drive is dropped exited 0" >&2
	exit 1
fi
dead_err=$(echo "$dead_err" | grep -v '^exit status' | grep -v 'simulated in' || true)
if [ "$(echo "$dead_err" | grep -c '^bmsctl fio: run [01] (seed 4[23]) failed: .*I/O error')" != 2 ] ||
	[ "$(echo "$dead_err" | wc -l)" != 2 ]; then
	echo "expected one 'bmsctl fio: run N (seed S) failed: ...' line per dead run and nothing else, got:" >&2
	echo "$dead_err" >&2
	exit 1
fi
echo "$dead_err"

if wedged_err=$(timeout 60 go run ./cmd/bmsctl fio -faults 'ssd-drop,t=20ms,target=PHLJ0000' 2>&1 >/dev/null); then
	echo "a deep-queue run whose only drive is dropped exited 0" >&2
	exit 1
fi
wedged_err=$(echo "$wedged_err" | grep -v '^exit status' | grep -v 'simulated' || true)
if [ "$(echo "$wedged_err" | grep -c '^bmsctl fio: run 0 (seed 42) failed: .*I/O error: nvme: status 0x7')" != 1 ] ||
	[ "$(echo "$wedged_err" | wc -l)" != 1 ]; then
	echo "expected one 'bmsctl fio: run 0 (seed 42) failed: ... I/O error: nvme: status 0x7' line and nothing else, got:" >&2
	echo "$wedged_err" >&2
	exit 1
fi
echo "$wedged_err"
echo "fault smoke OK"
