#!/usr/bin/env bash
# Interleaved parent/change runs of one repository-benchmark workload, the
# way a performance claim must be measured (ROADMAP: >= 10 pairs, order
# alternating, and again on a seed not used while writing the change).
#
#   scripts/bench_pairs.sh <parent-ref> <workload> <seed> <pairs>
#
# The parent commit is exported (git archive) into .bench_build/ once,
# and the working tree — uncommitted edits and untracked, unignored files
# included — into a sibling .bench_build/change-<stamp> for this set of
# pairs, so both sides run from exported trees at the same depth and
# neither runs from the repository root; the change's export is removed
# when the script exits, its reports kept. Both sides build with
# -trimpath (bench/run.sh keeps an incoming GOFLAGS), so the name of the
# tree a binary is built in leaves no trace in it: the same code links to
# the same bytes on either side. Parent and change then run
# bench/run.sh from their own trees — each its own benchmark, so a change
# that touched bench/ is visible as such — with the order swapped every
# pair. Every run's gated metrics, and on wsd_scan its decision counters
# (readings per decision, false-safe and false-NotSafe shares) and its
# same_seed_same_decisions digest, are printed as it finishes;
# `bench -compare` over all reports follows, and then the verdict on a claimed gain, per gated metric, by the rule in
# choosing-metrics §8: pairs won of pairs run (a tie counts for neither),
# both medians, the parent's own Q1–Q3, and "claim holds" only when at
# least ten pairs ran, the change won at least nine tenths of them and
# the medians differ by more than that quartile distance. On wsd_scan a
# last line says whether every run of both sides made the same decisions:
# "decisions identical: yes" only when all of them report one digest.
# Paste the lines into CHANGES.md. The verdict is also appended as one
# JSON line to TRAJECTORY.jsonl at the repository root (the parent sha,
# the measured tree's hash less TRAJECTORY.jsonl, workload, seed, pairs, nproc, per gated metric
# both medians, pairs won, the parent's Q1–Q3 and the verdict, and on
# wsd_scan each side's decision digests); commit it with the change.
# TestTrajectory (trajectory_test.go) holds every line to the rule.
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
stamp=$(date +%Y%m%dT%H%M%S)
parent="$root/.bench_build/parent-$sha"
change="$root/.bench_build/change-$stamp"
out="$root/.bench_build/pairs/$workload-seed$seed-$stamp"
mkdir -p "$out" "$change"
trap 'rm -rf "$change" "$out/index"' EXIT
# The measured tree's hash: the working tree as the export below takes
# it, through a scratch index so the real one is left alone, less
# TRAJECTORY.jsonl, which every run appends to: the same code keeps one
# hash from run to run, the commit's tree once the lines are committed
# with it.
cp "$root/.git/index" "$out/index"
tree=$(cd "$root" && export GIT_INDEX_FILE="$out/index" && git add -A &&
	git rm -q --cached --ignore-unmatch TRAJECTORY.jsonl && git write-tree)
if [ ! -d "$parent" ]; then
	mkdir -p "$parent.tmp"
	git -C "$root" archive "$sha" | tar -x -C "$parent.tmp"
	mv "$parent.tmp" "$parent"
fi
# Files deleted in the working tree are still listed; they are skipped.
(cd "$root" && git ls-files -z -co --exclude-standard |
	while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
	tar --null -T - -cf -) | tar -x -C "$change"
# One build cache for both trees: identical packages compile once.
export GOCACHE="$root/.bench_build/gocache"
export GOFLAGS="-trimpath${GOFLAGS:+ $GOFLAGS}"

# digests prints the decision digests the given wsd_scan logs report,
# sorted, distinct, comma-separated.
digests() {
	sed -n 's/.*same_seed_same_decisions.*digests \[\(.*\)\].*/\1/p' "$@" | tr ' ' '\n' | sort -u | paste -sd, -
}

run() { # side dir pair
	local report="$out/$1-$3.json" log="$out/$1-$3.log" digest=""
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "${SECONDS_PER_RUN:-14}" --trace "${TRACE:-0}" -out "$report" >"$log" 2>&1) ||
		{ echo "bench_pairs: $1 run $3 failed, see $log" >&2; exit 1; }
	if [ "$workload" = wsd_scan ]; then
		digest="digest=$(digests "$log")"
	fi
	echo "pair $3 $1: $(grep -E '^ *(ops_per_s|op_p50_ms|op_tail_ms|sut_cpu_us_per_op|core\.readings_per_decision|core\.false_safe_share|core\.false_unsafe_share) ' "$log" | awk '{printf "%s=%s ", $1, $2}')$digest"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$parent" "$i"
	fi
done

join() { local IFS=,; echo "$*"; }
cd "$root"
# A metric -compare finds worse fails the script, after the verdict.
status=0
"$change/.bench_build/bench" -compare "$(join "$out"/parent-*.json)" "$(join "$out"/change-*.json)" | tee "$out/compare.txt" || status=$?

# The verdict reads the same summary lines run() prints from.
echo
echo "verdict ($workload, seed $seed, $pairs pairs; quartiles by the exclusive method, as the driver's):"
for side in parent change; do
	for i in $(seq 1 "$pairs"); do
		grep -E '^ *(setup_s|ops_per_s|op_p50_ms|op_tail_ms|sut_cpu_us_per_op) ' "$out/$side-$i.log" |
			awk -v side="$side" -v pair="$i" '{print side, pair, $1, $2, $3}'
	done
done | awk -v pairs="$pairs" -v json="$out/metrics.json" '
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
		printf "%s\"%s\":{\"parent_median\":%.6g,\"change_median\":%.6g,\"won\":%d,\"parent_q1\":%.6g,\"parent_q3\":%.6g,\"parent_iqr\":%.6g,\"verdict\":\"%s\"}",
			(m > 1 ? "," : ""), name, medp, medc, wins, q1, q3, q3 - q1, holds > json
	}
}' | tee "$out/verdict.txt"
if [ "$workload" = wsd_scan ]; then
	pdig=$(digests "$out"/parent-*.log) cdig=$(digests "$out"/change-*.log) same=no
	if [ -n "$pdig" ] && [ "$pdig" = "$cdig" ] && [[ $pdig != *,* ]]; then
		same=yes
	fi
	echo "decisions identical: $same (parent $pdig, change $cdig)" | tee -a "$out/verdict.txt"
	digestsJSON=$(printf ',"digests":{"parent":"%s","change":"%s"}' "$pdig" "$cdig")
fi
printf '{"parent":"%s","tree":"%s","workload":"%s","seed":%d,"pairs":%d,"nproc":%d,"backfilled":false,"metrics":{%s}%s}\n' \
	"$sha" "$tree" "$workload" "$seed" "$pairs" "$(nproc)" "$(cat "$out/metrics.json")" "${digestsJSON:-}" >>"$root/TRAJECTORY.jsonl"
echo "reports: $out; verdict appended to TRAJECTORY.jsonl"
exit "$status"
