# Build, test, and verification entry points. `make check` is the CI
# gate: vet + build + full test suite under the race detector.

GO ?= go

.PHONY: check verify build test race vet fmt-check bench bench-telemetry bench-wal bench-cluster bench-ingest bench-e2e bench-e2e-smoke bench-geo bench-repo bench-pairs crash-test doccheck loadgen chaos cluster-test trace-smoke clean

check: vet build race

# Full pre-merge verification: formatting, vet, build, tests, the
# sharded-cluster suite (in-process chaos harness + real-process smoke),
# a seconds-long smoke tier of the latency-SLO harness under the race
# detector, the end-to-end trace smoke (one traced upload must cross
# gateway -> shard -> WAL under a single trace ID), and the godoc
# coverage gate on contract-surface packages.
verify: fmt-check vet build test doccheck cluster-test bench-e2e-smoke trace-smoke

# Godoc coverage on contract-surface packages: every exported
# identifier (funcs, methods, types, consts, vars, struct fields) must
# carry a doc comment. The package list lives in scripts/doccheck.sh.
doccheck:
	scripts/doccheck.sh

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Performance suite for the parallel pipeline PR: model construction
# fan-out, non-blocking retrain, cached model serving, k-means worker
# pool, the device's per-capture kernel (FromObservation256, warm and
# cold) with the FFT it is built from, and the telemetry budget. Results
# land in BENCH_2.json (machine-readable, via cmd/waldo-benchjson) with
# the raw text kept alongside in BENCH_2.txt.
BENCH_PATTERN ?= BuildModelParallel|RetrainConcurrentSubmit|RetrainStoreScale|ModelEndpointCached|KMeansAssign|FFT256|PowerSpectrum256|FromObservation256
BENCH_PKGS ?= ./internal/core/ ./internal/dbserver/ ./internal/ml/kmeans/ ./internal/dsp/ ./internal/features/

bench: bench-ingest
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -run XXX $(BENCH_PKGS) | tee BENCH_2.txt
	$(GO) run ./cmd/waldo-benchjson < BENCH_2.txt > BENCH_2.json

# Telemetry hot-path budget (< ~100 ns/op for counter inc / histogram
# observe).
bench-telemetry:
	$(GO) test -bench . -benchmem -run XXX ./internal/telemetry/

# Durability suite for the WAL PR: group-commit append cost, the full
# durable round trip, recovery replay speed, and the upload path with and
# without a WAL (the acceptance criterion: durable within ~10% of
# in-memory). Fixed iteration counts keep the memory/WAL comparison fair —
# per-op cost grows with store size, so time-based -benchtime would hand
# the two variants different workloads. Results land in BENCH_5.json with
# the raw text in BENCH_5.txt.
WAL_BENCH_PATTERN ?= BenchmarkAppendGroupCommit|BenchmarkAppendDurable|BenchmarkReplay
UPLOAD_BENCH_PATTERN ?= BenchmarkUploadPath

bench-wal:
	$(GO) test -bench '$(WAL_BENCH_PATTERN)' -benchmem -run XXX ./internal/wal/ | tee BENCH_5.txt
	$(GO) test -bench '$(UPLOAD_BENCH_PATTERN)' -benchmem -benchtime 30000x -run XXX ./internal/dbserver/ | tee -a BENCH_5.txt
	$(GO) run ./cmd/waldo-benchjson < BENCH_5.txt > BENCH_5.json

# The crash-recovery acceptance test under the race detector: a server
# killed mid-campaign (clean kill and torn-tail variants, plus a run under
# client-side network chaos) must recover from disk to byte-identical
# decisions, store exports, and model versions.
crash-test:
	$(GO) test -race ./internal/e2e/ -run 'TestCrashRecovery|TestRunCrashValidation' -count 1 -v

# End-to-end performance harness against an in-process spectrum database.
loadgen:
	$(GO) run ./cmd/waldo-loadgen -clients 8 -duration 5s -channels 46,47

# Deterministic chaos suite: the fault-injection layer, the client/server
# resilience tests, and the end-to-end byte-identity harness, all under
# the race detector (DESIGN.md §9).
chaos:
	$(GO) test -race ./internal/faultinject/ ./internal/e2e/ -count 1
	$(GO) test -race ./internal/client/ -run 'TestRetry|TestBackoff|TestBreaker|TestStaleServe|TestConcurrentRefreshUploadUnderFaults' -count 1
	$(GO) test -race ./internal/dbserver/ -run 'TestLoadShedding|TestRequestTimeout|TestMaxBody' -count 1

# Sharded-cluster acceptance: the ring/replication/gateway unit tests and
# the kill-a-primary e2e chaos harness under the race detector, then a
# real-process smoke — three waldo-server shards plus a waldo-gateway on
# loopback, loadgen driving the gateway (DESIGN.md §12).
cluster-test:
	$(GO) test -race ./internal/cluster/ -count 1
	$(GO) test -race ./internal/e2e/ -run TestCluster -count 1
	mkdir -p bin
	$(GO) build -o bin ./cmd/waldo-server ./cmd/waldo-gateway ./cmd/waldo-loadgen
	scripts/cluster_smoke.sh bin

# End-to-end trace smoke: real-process 3-shard cluster plus gateway, one
# traced upload, then assert the response-header trace ID is retained by
# both the gateway's and the owning shard's /debug/traces with the
# fan-out leg and WAL append spans (DESIGN.md §14).
trace-smoke:
	mkdir -p bin
	$(GO) build -o bin ./cmd/waldo-server ./cmd/waldo-gateway
	scripts/trace_smoke.sh bin

# Cluster tier benchmarks: gateway routing overhead vs a direct shard
# upload (the acceptance bar: < 2× per op) in both edge formats — the
# JSON-vs-Frame gap through the gateway is the cost of re-encoding JSON
# as a frame — plus ring lookup and replication frame encode costs.
# Fixed iteration counts keep the direct/gateway comparison fair.
# Results land in BENCH_6.json with the raw text in BENCH_6.txt.
CLUSTER_BENCH_PATTERN ?= BenchmarkUploadDirect|BenchmarkUploadViaGateway|BenchmarkRingOwner|BenchmarkFrameEncode

bench-cluster:
	$(GO) test -bench '$(CLUSTER_BENCH_PATTERN)' -benchmem -benchtime 3000x -run XXX ./internal/cluster/ | tee BENCH_6.txt
	$(GO) run ./cmd/waldo-benchjson < BENCH_6.txt > BENCH_6.json

# Ingest suite for the binary-batching PR: the same 256-reading stream
# ingested as 64 per-scan JSON uploads vs one binary batch frame, memory
# and WAL variants (acceptance: batch ≥ 10× single-JSON readings/s), plus
# the watch-hub bump cost with 0 and 4096 idle watchers parked
# (acceptance: flat — the retrain path does O(1) work however many WSDs
# wait). Fixed iteration counts keep the comparisons on equal store
# sizes. Results land in BENCH_7.json with the raw text in BENCH_7.txt.
# Gate changes against a saved baseline with scripts/bench_regress.sh.
INGEST_BENCH_PATTERN ?= BenchmarkIngest
WATCH_BENCH_PATTERN ?= BenchmarkWatchBump

bench-ingest:
	$(GO) test -bench '$(INGEST_BENCH_PATTERN)' -benchmem -benchtime 500x -run XXX ./internal/dbserver/ | tee BENCH_7.txt
	$(GO) test -bench '$(WATCH_BENCH_PATTERN)' -benchtime 100000x -run XXX ./internal/dbserver/ | tee -a BENCH_7.txt
	$(GO) run ./cmd/waldo-benchjson < BENCH_7.txt > BENCH_7.json

# End-to-end latency-SLO harness (DESIGN.md / OPERATIONS.md §SLO): boots
# a real in-process server (single-node and 3-shard gateway topologies),
# drives open-loop load tiers, and APPENDS per-endpoint p50/p95/p99/p999
# plus GC-pause percentiles to the BENCH_E2E.json trajectory. Gate the
# last two runs with scripts/bench_regress.sh BENCH_E2E.json.
E2E_TIERS ?= 1k=1000,10k=10000,50k=50000
E2E_TIER_DURATION ?= 5s

bench-e2e:
	$(GO) run ./cmd/waldo-bench-e2e -out BENCH_E2E.json -tiers '$(E2E_TIERS)' -tier-duration $(E2E_TIER_DURATION)

# The verify-time slice: the harness's own test suite under -race (smoke
# tiers on both topologies, the geo-query tiers with the
# rebuild-off-the-request-path check, plus the shutdown goroutine-leak
# checks).
bench-e2e-smoke:
	$(GO) test -race ./internal/benchharness/ -count 1

# Spatiotemporal query harness (DESIGN.md §15): boots the single and
# 3-shard gateway topologies and drives GET /v1/availability + POST
# /v1/route open-loop at fixed tiers while periodic retrains keep the
# availability grid rebuilding underneath. APPENDS per-endpoint
# p50/p95/p99/p999 plus published-rebuild counts to the BENCH_10.json
# trajectory (bench_e2e/v1 schema); once two runs exist,
# scripts/bench_regress.sh gates route/availability p99 between the last
# two runs. The threshold is looser than the microbench default: these
# are ms-scale p99s from seconds-long tiers on whatever box CI hands us,
# where ±40% scheduler noise is routine — the gate exists to catch the
# order-of-magnitude blowup of rebuild work landing on the request path,
# not to relitigate jitter.
GEO_TIERS ?= 500=500,2k=2000,5k=5000
GEO_TIER_DURATION ?= 5s
GEO_REGRESS_PCT ?= 50

bench-geo:
	$(GO) run ./cmd/waldo-bench-geo -out BENCH_10.json -tiers '$(GEO_TIERS)' -tier-duration $(GEO_TIER_DURATION)
	@if [ "$$(grep -c '"time":' BENCH_10.json)" -ge 2 ]; then \
		scripts/bench_regress.sh BENCH_10.json $(GEO_REGRESS_PCT); \
	else \
		echo "bench-geo: first run recorded; the regression gate engages from the second run"; \
	fi

# The repository benchmark (bench/README.md, BENCHMARK.json), as the
# driver calls it: one workload, the committed seed and run length, no
# trace. `make bench-repo W=train`; W is one of ingest_single,
# ingest_cluster, query_mixed, wsd_scan, train. Builds under
# .bench_build/ in the checkout.
W ?= train

bench-repo:
	bash bench/run.sh --workload $(W) --seed 42 --seconds 14 --trace 0

# Interleaved parent/change pairs of one workload, ending in bench
# -compare: how a performance claim is measured (scripts/bench_pairs.sh).
# `make bench-pairs PARENT=HEAD~1 W=ingest_single SEED=42 PAIRS=10`.
PARENT ?= HEAD~1
SEED ?= 42
PAIRS ?= 10

bench-pairs:
	scripts/bench_pairs.sh $(PARENT) $(W) $(SEED) $(PAIRS)

clean:
	$(GO) clean ./...
	rm -rf .bench_build
