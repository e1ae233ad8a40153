#!/usr/bin/env bash
# Re-bless scripts/bench_allocs_baseline.txt (`make bench-baseline`): rerun
# the gated benchmarks (scripts/gated_benches.sh) and rewrite the baseline's
# rows from what they report — allocs/op, events/op for the benchmarks that
# report it, and B/op for the rows that gate it. The baseline's header, its
# leading `#` lines, is kept as it is: edit it in the baseline itself. Use
# after an intentional allocation change — the diff the commit carries IS the
# written justification the header asks for.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=scripts/bench_allocs_baseline.txt
header=$(sed -n '/^#/!q; p' "$baseline")
rows=$(grep '^Benchmark' "$baseline" || true)
out=$(bash scripts/gated_benches.sh)

# A ceiling at the measured value plus 5 % keeps its old value while the
# measurement still fits under it and the new ceiling is within 1 % of it:
# the runtime's stray bytes and a spare allocation must not rewrite a row.
{
	printf '%s\n' "$header"
	printf '%s\n' "$out" | awk -v rows="$rows" '
		function margin(m, old,    c) {
			c = int((m * 105 + 99) / 100)
			if (old != "" && old != "-" && m <= old + 0 && old + 0 <= int((c * 101 + 99) / 100)) return old
			return c
		}
		BEGIN {
			n = split(rows, line, "\n")
			for (i = 1; i <= n; i++) {
				split(line[i], f, " ")
				oldAllocs[f[1]] = f[2]
				oldBytes[f[1]] = f[4]
			}
		}
		$1 ~ /^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			n = $(NF-1)
			if (name == "BenchmarkAppsMixedRound" || name == "BenchmarkRigBuild" || name == "BenchmarkFleetHost") n = margin(n, oldAllocs[name])
			cols = ""
			for (i = 2; i < NF; i++) if ($(i+1) == "events/op") cols = " " $i
			if (name == "BenchmarkEnvRand" || name == "BenchmarkFioWorkerStart" || name == "BenchmarkIOPathRecoveringThroughput" || name == "BenchmarkFleetHost") {
				if (cols == "") cols = " -"
				for (i = 2; i < NF; i++) if ($(i+1) == "B/op") cols = cols " " margin($i, oldBytes[name])
			}
			print name, n cols
		}'
} > "$baseline"
echo "bench-baseline: wrote $baseline:"
cat "$baseline"
