# Build, test, and verification entry points. `make check` is the CI
# gate: vet + build + full test suite under the race detector, then the
# portable path that amd64 tests never compile: the svm package vetted
# for arm64 (no vector cosine) and the whole module built for 386.

GO ?= go

.PHONY: check verify build test race vet fmt-check bench-repo bench-pairs layers chaos cluster-test clean

check: vet build race
	GOARCH=arm64 $(GO) vet ./internal/ml/svm
	GOARCH=386 $(GO) build ./...

# Full pre-merge verification: formatting, vet, build, tests (among
# them the godoc coverage gate on contract-surface packages and each
# binary's own run booted in-process: a traced upload read back from
# its /debug/traces, then a real SIGTERM with a watch parked), the
# sharded-cluster suite under the race detector, and a one-second
# query_mixed run of the repository benchmark: the shipped binaries as
# subprocesses (3 shards + gateway) under uploads, model fetch/watch, availability,
# routes and retrains, with the workload's own correctness checks, and a
# one-second wsd_scan run (the device in-process: its decision digest and
# false-safe checks). Before that, one iteration of the trainer's, the
# WAL replay's (its per-record allocation budget is checked), the
# availability grid rebuild's, the durable
# append path's (upload to WAL append, which counts each record toward
# the next checkpoint), the JSON upload and route decoders', the gateway's
# place-query, upload and leg, the replication frame encode's, and the
# device's extraction, detector and warm 9-channel scan benchmarks, so
# they cannot rot unbuilt.
verify: fmt-check vet build test cluster-test
	$(GO) test ./internal/ml/svm ./internal/dataset ./internal/geo ./internal/geoindex ./internal/core ./internal/wal ./internal/dbserver ./internal/cluster ./internal/client -run xxx -bench 'CosExact|RFFTransform|RFFSVMTrain|PegasosTrain|LabelReadings|GridWithinRadius|GridRebuild|MetroRebuild|DetectorThroughput|ScanMetro|Replay|DecodeUploadJSON|DecodeRouteJSON|GatewayPlaceQueries|UploadViaGatewayFrame|LegExchange|FrameEncode|UploadPathWAL|AppendGroupCommit' -benchtime 1x
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

# Deterministic chaos suite: the fault-injection layer, the client/server
# resilience tests, and the end-to-end byte-identity harness, all under
# the race detector (DESIGN.md §9). The e2e package holds the
# crash-recovery acceptance test (DESIGN.md §10): a server killed
# mid-campaign (clean kill and torn-tail variants, plus a run under
# client-side network chaos) must recover from disk to byte-identical
# decisions, store exports, and model versions. About 21 s on 2 vCPUs with a warm
# build cache, all of it race-instrumented work: no run waits out a
# shutdown grace, because every harness process stops through
# adminhttp's Server.Close, which wakes parked polls.
chaos:
	$(GO) test -race ./internal/faultinject/ ./internal/e2e/ -count 1
	$(GO) test -race ./internal/client/ -run 'TestRetry|TestBackoff|TestBreaker|TestStaleServe|TestWatch|TestConcurrentRefreshUploadUnderFaults' -count 1
	$(GO) test -race ./internal/dbserver/ -run TestMaxBody -count 1

# Sharded-cluster acceptance under the race detector: the
# ring/replication/gateway unit tests, at one and at four cores, and the
# kill-a-primary e2e chaos harness (DESIGN.md §12). The shipped binaries
# are booted as a cluster by verify's bench run. About 33 s on 2 vCPUs
# with a warm build cache, nearly all of it the race-instrumented
# cluster unit tests at two -cpu values; TestClusterCrash takes under a
# second.
cluster-test:
	$(GO) test -race -cpu 1,4 ./internal/cluster/ -count 1
	$(GO) test -race ./internal/e2e/ -run TestCluster -count 1

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

# Layer budgets: each layer's in-package benchmark (trainer, device,
# durable upload, WAL, cluster) at -cpu 1,2 -count 5, summarised as one
# "layer" line appended to TRAJECTORY.jsonl; commit it. About a minute
# on 2 vCPUs. `scripts/layers.sh <ref>` measures a commit instead of the
# working tree.
layers:
	scripts/layers.sh

clean:
	$(GO) clean ./...
	rm -rf .bench_build
