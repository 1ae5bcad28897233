# Build, test, and verification entry points. `make check` is the CI
# gate: vet + build + full test suite under the race detector.

GO ?= go

.PHONY: check verify build test race vet fmt-check bench-repo bench-pairs crash-test chaos cluster-test trace-smoke clean

check: vet build race

# Full pre-merge verification: formatting, vet, build, tests (among
# them the godoc coverage gate on contract-surface packages), the
# sharded-cluster suite under the race detector, the end-to-end trace
# smoke (real processes: one traced upload must cross gateway -> shard
# -> WAL under a single trace ID), and a one-second query_mixed run of
# the repository benchmark: the shipped binaries as subprocesses (3
# shards + gateway) under uploads, model fetch/watch, availability,
# routes and retrains, with the workload's own correctness checks, and a
# one-second wsd_scan run (the device in-process: its decision digest and
# false-safe checks). Before that, one iteration of the trainer's, the
# WAL replay's (its per-record allocation budget is checked), the durable
# append path's (upload to WAL append, which counts each record toward
# the next checkpoint), the JSON upload decoder's, the gateway's
# place-query, upload and leg, the replication frame encode's, and the
# device's extraction benchmarks, so they cannot rot unbuilt.
verify: fmt-check vet build test cluster-test trace-smoke
	$(GO) test ./internal/ml/svm ./internal/dataset ./internal/geo ./internal/core ./internal/wal ./internal/dbserver ./internal/cluster -run xxx -bench 'CosExact|RFFTransform|RFFSVMTrain|PegasosTrain|LabelReadings|GridWithinRadius|MetroRebuild|Replay|DecodeUploadJSON|GatewayPlaceQueries|UploadViaGatewayFrame|LegExchange|FrameEncode|UploadPathWAL|AppendGroupCommit' -benchtime 1x
	$(GO) test ./internal/dsp ./internal/features -run xxx -bench 'PowerSpectrum256|FromObservation256|Measure256' -benchtime 1x
	bash bench/run.sh --workload query_mixed --seed 42 --seconds 1 --trace 0
	bash bench/run.sh --workload wsd_scan --seed 42 --seconds 1 --trace 0

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

# The crash-recovery acceptance test under the race detector: a server
# killed mid-campaign (clean kill and torn-tail variants, plus a run under
# client-side network chaos) must recover from disk to byte-identical
# decisions, store exports, and model versions.
crash-test:
	$(GO) test -race ./internal/e2e/ -run 'TestCrashRecovery|TestRunCrashValidation' -count 1 -v

# Deterministic chaos suite: the fault-injection layer, the client/server
# resilience tests, and the end-to-end byte-identity harness, all under
# the race detector (DESIGN.md §9).
chaos:
	$(GO) test -race ./internal/faultinject/ ./internal/e2e/ -count 1
	$(GO) test -race ./internal/client/ -run 'TestRetry|TestBackoff|TestBreaker|TestStaleServe|TestWatch|TestConcurrentRefreshUploadUnderFaults' -count 1
	$(GO) test -race ./internal/dbserver/ -run TestMaxBody -count 1

# Sharded-cluster acceptance under the race detector: the
# ring/replication/gateway unit tests and the kill-a-primary e2e chaos
# harness (DESIGN.md §12). The shipped binaries are booted as a cluster
# by trace-smoke and by verify's bench run.
cluster-test:
	$(GO) test -race ./internal/cluster/ -count 1
	$(GO) test -race ./internal/e2e/ -run TestCluster -count 1

# End-to-end trace smoke: real-process 3-shard cluster plus gateway, one
# traced upload, then assert the response-header trace ID is retained by
# both the gateway's and the owning shard's /debug/traces with the
# fan-out leg and WAL append spans (DESIGN.md §14).
trace-smoke:
	mkdir -p bin
	$(GO) build -o bin ./cmd/waldo-server ./cmd/waldo-gateway
	scripts/trace_smoke.sh bin

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
	rm -rf .bench_build bin
