#!/usr/bin/env bash
# Interleaved parent/change runs of one repository-benchmark workload, the
# way a performance claim must be measured (ROADMAP: >= 10 pairs, order
# alternating, and again on a seed not used while writing the change).
#
#   scripts/bench_pairs.sh <parent-ref> <workload> <seed> <pairs>
#
# The parent commit is exported (git archive) into .bench_build/ once;
# parent and change then run bench/run.sh from their own trees — each its
# own committed benchmark, so a change that touched bench/ is visible as
# such — with the order swapped every pair. Every run's gated metrics are
# printed as it finishes; `bench -compare` over all reports follows, and
# then the verdict on a claimed gain, per gated metric, by the rule in
# choosing-metrics §8: pairs won of pairs run (a tie counts for neither),
# both medians, the parent's own Q1–Q3, and "claim holds" only when at
# least ten pairs ran, the change won at least nine tenths of them and
# the medians differ by more than that quartile distance. Paste the line
# into CHANGES.md.
# SECONDS_PER_RUN (default 14, BENCHMARK.json's run length) and TRACE
# (default 0) override the run flags.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: $0 <parent-ref> <workload> <seed> <pairs>" >&2
	exit 2
fi
ref=$1 workload=$2 seed=$3 pairs=$4
root=$(cd "$(dirname "$0")/.." && pwd)
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
parent="$root/.bench_build/parent-$sha"
out="$root/.bench_build/pairs/$workload-seed$seed-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out"
if [ ! -d "$parent" ]; then
	mkdir -p "$parent.tmp"
	git -C "$root" archive "$sha" | tar -x -C "$parent.tmp"
	mv "$parent.tmp" "$parent"
fi
# One build cache for both trees: identical packages compile once.
export GOCACHE="$root/.bench_build/gocache"

run() { # side dir pair
	local report="$out/$1-$3.json"
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "${SECONDS_PER_RUN:-14}" --trace "${TRACE:-0}" -out "$report" >"$out/$1-$3.log" 2>&1) ||
		{ echo "bench_pairs: $1 run $3 failed, see $out/$1-$3.log" >&2; exit 1; }
	echo "pair $3 $1: $(grep -E '^ *(ops_per_s|op_p50_ms|op_tail_ms|sut_cpu_us_per_op) ' "$out/$1-$3.log" | awk '{printf "%s=%s ", $1, $2}')"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$parent" "$i"
	fi
done

join() { local IFS=,; echo "$*"; }
cd "$root"
"$root/.bench_build/bench" -compare "$(join "$out"/parent-*.json)" "$(join "$out"/change-*.json)" | tee "$out/compare.txt"

# The verdict reads the same summary lines run() prints from.
echo
echo "verdict ($workload, seed $seed, $pairs pairs; quartiles by the exclusive method, as the driver's):"
for side in parent change; do
	for i in $(seq 1 "$pairs"); do
		grep -E '^ *(setup_s|ops_per_s|op_p50_ms|op_tail_ms|sut_cpu_us_per_op) ' "$out/$side-$i.log" |
			awk -v side="$side" -v pair="$i" '{print side, pair, $1, $2, $3}'
	done
done | awk -v pairs="$pairs" '
function quantile(v, n, k,    pos, j) { # k-th quartile of v[1..n], ascending
	pos = k * (n + 1) / 4; j = int(pos)
	if (j < 1) return v[1]
	if (j >= n) return v[n]
	return v[j] + (pos - j) * (v[j+1] - v[j])
}
function sorted(src, dst, n,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j-1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j-1]; dst[j-1] = t }
}
{ val[$1, $3, $2] = $4; unit[$3] = $5; if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 } }
END {
	for (m = 1; m <= nm; m++) {
		name = order[m]; wins = 0
		for (i = 1; i <= pairs; i++) {
			p[i] = val["parent", name, i]; c[i] = val["change", name, i]
			if (name == "ops_per_s" ? c[i] > p[i] : c[i] < p[i]) wins++
		}
		sorted(p, sp, pairs); sorted(c, sc, pairs)
		medp = quantile(sp, pairs, 2); medc = quantile(sc, pairs, 2)
		q1 = quantile(sp, pairs, 1); q3 = quantile(sp, pairs, 3)
		d = medc - medp; gap = d < 0 ? -d : d
		holds = "no claim"
		if (wins >= 0.9 * pairs && gap > q3 - q1) holds = pairs >= 10 ? "claim holds" : "would hold, but a claim needs 10 pairs"
		printf "  %-18s change won %d/%d pairs; median %.4f -> %.4f %s (%+.1f%% of the parent median); parent Q1-Q3 %.4f-%.4f (%.4f)  -> %s\n",
			name, wins, pairs, medp, medc, unit[name], 100 * d / medp, q1, q3, q3 - q1, holds
	}
}' | tee "$out/verdict.txt"
echo "reports: $out"
