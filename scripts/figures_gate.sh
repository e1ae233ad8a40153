#!/usr/bin/env bash
# Paper-fidelity gate (`make figures-gate`): regenerate the fast-scale
# evaluation sweep and hold it to three contracts at once:
#
#   1. Exact: every structured Result record matches its checked-in golden
#      (goldens/*.json) cell for cell — the simulator is deterministic, so
#      any divergence is drift somebody must either fix or bless via
#      `make goldens`.
#   2. Shape: the paper's claims (§V orderings, bands, knees) hold on the
#      fresh results — a recalibration can move numbers, never the story.
#   3. Rendered: the committed bench_tables.txt is byte-identical to the
#      regenerated output, so the human-readable artifact can't go stale.
#
# Everything the gate produces lands in $FIGURES_OUT (default: a temp dir)
# so CI can upload it — results.json, the fidelity report, the rendered
# tables, and any diff — even when the gate fails.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${FIGURES_OUT:-$(mktemp -d)}
mkdir -p "$out"
status=0

echo "figures-gate: regenerating the fast sweep (artifacts in $out)"
# -check runs the in-process comparison (report on stderr, nonzero exit on
# drift); stdout must stay pure tables so the rendered diff below works.
if ! go run ./cmd/bmsctl sweep -scale fast -trace-digest \
	-json "$out/results.json" -check goldens > "$out/bench_tables.txt"; then
	echo "figures-gate: bmsctl sweep -check flagged drift or a shape violation" >&2
	status=1
fi

# The offline comparator produces the pretty drift report artifact; it must
# agree with -check above (same fidelity.Check underneath).
if ! go run ./cmd/bmsctl fidelity-diff goldens "$out/results.json" > "$out/fidelity_report.txt" 2>&1; then
	status=1
fi
cat "$out/fidelity_report.txt"

if ! diff -u bench_tables.txt "$out/bench_tables.txt" > "$out/bench_tables.diff"; then
	echo "figures-gate: committed bench_tables.txt does not match regenerated output:" >&2
	cat "$out/bench_tables.diff" >&2
	status=1
fi

if [ "$status" -ne 0 ]; then
	echo "figures-gate: FAIL — inspect the report above; if the new numbers are" >&2
	echo "figures-gate: intentional AND the shape rules still pass, bless them with 'make goldens'" >&2
	exit 1
fi
echo "figures-gate: OK"
