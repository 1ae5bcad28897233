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
# printed as it finishes; `bench -compare` over all reports ends the run.
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
echo "reports: $out"
