#!/usr/bin/env bash
# Layer budgets: each layer's in-package benchmark, at one and at two
# cores, five runs each, summarised as one `"kind":"layer"` JSON line
# appended to TRAJECTORY.jsonl (TestTrajectory holds it to the schema).
#
#   scripts/layers.sh [<ref>]
#
# With no argument it measures the working tree, as it stands; keep it
# still meanwhile. With a ref it measures that commit, exported (git
# archive) once into .bench_build/layers-<sha>. Either way keep the
# machine idle: about a minute on 2 vCPUs with a warm build cache.
#
# The layers, each at a fixed iteration count so both core counts and
# every run do the same work (an upload's cost grows with the store):
#   - the trainer: svm's RFF feature map and 48-wide cosine row, and
#     core's 9-channel metro rebuild at 5 282 and at 1 000 readings;
#   - the device: core's placed decision and client's warm 9-channel scan;
#   - the durable upload path (dbserver), the WAL append (wal);
#   - the cluster: a frame upload straight at a shard and through the
#     gateway, the gateway's leg transport and its replica-answered
#     place queries.
# Per benchmark and -cpu value the line holds the median, min and max
# over the runs of ns/op, allocs/op and, where the benchmark reports
# it, cpu-ns/op (the process's CPU per op). "ratios" holds the gateway's
# frame upload over the direct one, by medians, per -cpu value; "failed"
# names what failed (the script then exits 1, after appending).
set -euo pipefail

if [ $# -gt 1 ]; then
	echo "usage: $0 [<ref>]" >&2
	exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build/layers"
mkdir -p "$out"
stamp=$(date +%Y%m%dT%H%M%S)
index="$out/index-$stamp"
trap 'rm -f "$index"' EXIT
# The measured tree's hash, less TRAJECTORY.jsonl (as scripts/bench_pairs.sh
# takes it), through a scratch index so the real one is left alone.
if [ $# -eq 1 ]; then
	commit=$(git rev-parse --verify "$1^{commit}")
	dir="$root/.bench_build/layers-$commit"
	if [ ! -d "$dir" ]; then
		mkdir -p "$dir.tmp"
		git archive "$commit" | tar -x -C "$dir.tmp"
		mv "$dir.tmp" "$dir"
	fi
	tree=$(export GIT_INDEX_FILE="$index" && git read-tree "$commit" &&
		git rm -q --cached --ignore-unmatch TRAJECTORY.jsonl && git write-tree)
else
	commit=$(git rev-parse HEAD)
	dir=$root
	cp "$root/.git/index" "$index"
	tree=$(export GIT_INDEX_FILE="$index" && git add -A &&
		git rm -q --cached --ignore-unmatch TRAJECTORY.jsonl && git write-tree)
fi

# package, iterations per run, -bench pattern
groups=(
	"internal/ml/svm 500000x ^BenchmarkRFFTransform\$|^BenchmarkCosExact\$/^row48\$"
	"internal/core 30x ^BenchmarkMetroRebuild\$/^warm\$"
	"internal/core 100x ^BenchmarkMetroRebuild\$/^small\$"
	"internal/core 200000x ^BenchmarkDetectorThroughput\$/^placed\$"
	"internal/client 20000x ^BenchmarkScanMetro\$"
	"internal/dbserver 5000x ^BenchmarkUploadPathWAL\$"
	"internal/wal 100000x ^BenchmarkAppendGroupCommit\$"
	"internal/cluster 3000x ^(BenchmarkUploadDirectFrame|BenchmarkUploadViaGatewayFrame|BenchmarkLegExchange|BenchmarkGatewayPlaceQueries)\$"
)
raw="$out/$stamp.txt"
: >"$raw"
for g in "${groups[@]}"; do
	read -r pkg n pattern <<<"$g"
	echo "layers: $pkg $pattern" >&2
	status=0
	(cd "$dir" && go test -run '^$' -bench "$pattern" -benchtime "$n" -benchmem \
		-cpu 1,2 -count 5 -timeout 10m "./$pkg") >"$raw.part" 2>&1 || status=$?
	if [ "$status" -ne 0 ] && ! grep -q -- '--- FAIL:' "$raw.part"; then
		echo "--- FAIL: go-test-exited-$status" >>"$raw.part" # a build failure names no benchmark
	fi
	sed "s|^|$pkg $n |" "$raw.part" | tee -a "$raw" | grep -E ' (Benchmark|--- FAIL)' >&2 || true
done
rm -f "$raw.part"

# "<pkg> <n> BenchmarkName[-cpu] <iters> <v> ns/op [<v> cpu-ns/op] ... <v> allocs/op"
line=$(awk -v commit="$commit" -v tree="$tree" -v nproc="$(nproc)" '
function stat(list,    v, k, i, j, t, mid) {
	k = split(list, v, " ")
	for (i = 2; i <= k; i++) for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
	mid = k % 2 ? v[(k+1)/2] : (v[k/2] + v[k/2+1]) / 2
	return sprintf("{\"median\":%.6g,\"min\":%.6g,\"max\":%.6g}", mid, v[1], v[k])
}
function median(list,    s) { s = stat(list); sub(/^\{"median":/, "", s); sub(/,.*/, "", s); return s + 0 }
/--- FAIL: / {
	name = $0; sub(/.*--- FAIL: /, "", name); sub(/[ \t].*/, "", name); sub(/-[0-9]+$/, "", name)
	if (!(($1 " " name) in failedAt)) { failedAt[$1 " " name] = 1; failed[++nf] = $1 " " name }
	next
}
$3 ~ /^Benchmark/ && $4 ~ /^[0-9]+$/ {
	name = $3; cpu = 1
	if (match(name, /-[0-9]+$/)) { cpu = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1) }
	key = $1 " " name " " cpu
	if (!(key in runs)) { order[++nk] = key; pkgOf[key] = $1; nameOf[key] = name; cpuOf[key] = cpu; nOf[key] = $2 }
	runs[key]++
	for (i = 5; i < NF; i += 2) {
		if ($(i+1) == "ns/op") ns[key] = ns[key] " " $i
		if ($(i+1) == "cpu-ns/op") cpuns[key] = cpuns[key] " " $i
		if ($(i+1) == "allocs/op") allocs[key] = allocs[key] " " $i
	}
}
END {
	printf "{\"kind\":\"layer\",\"commit\":\"%s\",\"tree\":\"%s\",\"nproc\":%d,\"count\":5,\"benchmarks\":[", commit, tree, nproc
	for (k = 1; k <= nk; k++) {
		key = order[k]; n = nOf[key]; sub(/x$/, "", n)
		printf "%s{\"pkg\":\"%s\",\"name\":\"%s\",\"cpu\":%d,\"n\":%d,\"runs\":%d,\"ns_op\":%s", (k > 1 ? "," : ""),
			pkgOf[key], nameOf[key], cpuOf[key], n, runs[key], stat(ns[key])
		if (key in cpuns) printf ",\"cpu_ns_op\":%s", stat(cpuns[key])
		if (key in allocs) printf ",\"allocs_op\":%s", stat(allocs[key])
		printf "}"
	}
	printf "],\"ratios\":["
	nr = 0
	for (cpu = 1; cpu <= 2; cpu++) {
		d = "internal/cluster BenchmarkUploadDirectFrame " cpu; g = "internal/cluster BenchmarkUploadViaGatewayFrame " cpu
		if ((d in ns) && (g in ns))
			printf "%s{\"name\":\"upload_frame_gateway_over_direct\",\"cpu\":%d,\"value\":%.4g}", (nr++ ? "," : ""), cpu, median(ns[g]) / median(ns[d])
	}
	printf "],\"failed\":["
	for (i = 1; i <= nf; i++) printf "%s\"%s\"", (i > 1 ? "," : ""), failed[i]
	printf "]}\n"
}' "$raw")
echo "$line" >>"$root/TRAJECTORY.jsonl"
echo "layers: appended to TRAJECTORY.jsonl (raw output: $raw)" >&2
case $line in
*'"failed":[]}') ;;
*)
	echo "layers: some benchmarks failed: $(sed 's/.*"failed":\[\(.*\)\]}/\1/' <<<"$line")" >&2
	exit 1
	;;
esac
