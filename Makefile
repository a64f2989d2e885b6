# Verification tiers. Tier-1 is the cheap always-on gate; tier-2 (verify)
# adds static checks, the race detector, and the chaos fault-injection
# suite, and is the bar for merging runtime/delegation changes.

GO ?= go

.PHONY: build test verify fmt-check chaos bench bench-compare bench-full alloc-smoke obs-smoke wal-smoke net-smoke fuzz-smoke loc

build:
	$(GO) build ./...

# Tier-1: build + full test suite.
test: build
	$(GO) test ./...

# Tier-2: vet + race-detected tests + allocation gate on the delegation hot
# path. -short shrinks the chaos schedules (fewer sessions/seeds); drop it
# for the full sweep. The arm64 cross-build keeps the prefetch package's
# per-arch split (assembly on amd64, no-op elsewhere) compiling on a
# non-amd64 target.
verify: build fmt-check obs-smoke alloc-smoke wal-smoke net-smoke fuzz-smoke
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	$(GO) test -race -short ./...

# Fail if any tracked Go file is not gofmt-clean. Listing tracked files
# keeps the check out of .bench_build/'s module cache.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Fail if the unobserved synchronous delegation round trip allocates.
alloc-smoke:
	./scripts/alloc-smoke.sh

# Durability gate: shrunk WAL chaos golden-equality suite under -race plus
# the allocation check on the logged delegation round trip.
wal-smoke:
	./scripts/wal-smoke.sh

# End-to-end observability smoke: run a chaos schedule with the live
# endpoint up, scrape /metrics, and assert the injected faults show in the
# exported counters.
obs-smoke:
	./scripts/obs-smoke.sh

# End-to-end network front-end smoke: robustserved on a free port, a short
# mixed workload over TCP via robustycsb -addr, server counters asserted on
# /metrics, clean SIGTERM drain.
net-smoke:
	./scripts/net-smoke.sh

# Ten seconds of native fuzzing on each differential target: the B-Tree
# batch kernel (ExecBatch vs the public methods in index order), the
# four indexes against a map oracle (point ops, Modify, batch groups
# through each structure's ExecBatch kernel, and early-stopping scans over
# a key space wide enough to split and drain leaves), WAL
# recovery over corrupted segment and checkpoint bytes against a
# reference scan, and the wire protocol (request decode/encode round trips
# and frame cutting over arbitrary bytes). Each mutates
# from its checked-in corpus under the package's testdata/fuzz; a failing
# input is written there — commit it with the fix. The two index targets
# cap the shrinking of each new interesting input at 100 executions: their
# inputs run to 3–4 KiB at about a millisecond per execution, and the
# default 60 s minimisation (quadratic in input length) would spend the
# 10 s on shrinking one input instead of fuzzing.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzExecBatchVsSerial$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/index/btree
	$(GO) test -run '^$$' -fuzz '^FuzzIndexAgainstOracle$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecover$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 10s ./internal/server/proto
	$(GO) test -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime 10s ./internal/server/proto

# The full-size chaos fault-injection suite on its own — both the WAL-off
# schedules (crash-with-data-loss envelope) and the TestChaosWAL* suite
# (crash-with-replay golden equality).
chaos:
	$(GO) test -race -run Chaos -v ./internal/harness/

# Record the delegation/index/TPC-C perf trajectory into
# BENCH_delegation.json (commit the refreshed snapshot).
bench:
	./scripts/bench-snapshot.sh

# Re-run the snapshot benchmarks and fail on a >15% ns/op regression against
# the committed BENCH_delegation.json (THRESHOLD_PCT overrides the bar).
bench-compare:
	./scripts/bench-compare.sh

# Every benchmark in the repo, including the paper-artefact regenerations.
bench-full:
	$(GO) test -run xxx -bench . -benchmem ./...

# Non-test Go lines under internal/ — the size metric ROADMAP aim 2 tracks.
loc:
	@find internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
