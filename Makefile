# Mirrors .github/workflows/ci.yml — `make ci` runs what CI runs.

GO ?= go

.PHONY: all build test race lint bench-smoke bench-serve live-smoke chaos trace-smoke fleet-smoke check-smoke restart-smoke cluster-smoke perfbench-test ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

# The CI gate: the concurrent runner must reproduce the paper tables
# byte-identically to the serial path.
bench-smoke:
	$(GO) test -run TestPaperTables -short -v ./internal/experiments

# The code-server gate: allocation regressions on the serve hot path
# (pooled copy/payload buffers) plus the load-generator smoke, which
# measures cold vs warm streams/sec and time-to-first-unit against a
# live multi-tenant server and writes BENCH_serve.json at the repo
# root. Fails unless a warm cache serves >= 10x the cold request rate.
bench-serve:
	$(GO) test -run TestDiscardNZeroAlloc -v ./internal/stream
	$(GO) test -run '^$$' -bench 'BenchmarkDiscardN|BenchmarkServe|BenchmarkColdServe|BenchmarkWarmServe' \
		-benchtime 50x -benchmem ./internal/stream ./internal/server
	$(GO) test -run TestBenchServeSmoke -v ./internal/server

# Overlapped execution end to end: serve with fault injection, execute
# while the stream arrives (run-remote), gate on the self-check.
live-smoke:
	$(GO) test -run 'TestLive|TestServeAndRunRemote' -v ./internal/live ./cmd/nonstrict

# The chaos gate, under -race: seeded fault schedules — silent
# corruption, mid-body stalls, truncation, flaky unit tables, garbage
# Range replies, dead streams — must end in output identical to the
# fault-free run or a clean error, never a hang, with the corruption
# and repair counters accounted. Includes the seeded fuzz corpora for
# the stream header/unit parser and the unit table.
chaos:
	$(GO) test -race -run 'TestChaos|TestGateDeadline|TestGateTimeout|TestStreamDeath|TestFault|TestRepair|TestDemandHeals|TestParseTOC|TestServeAndRunRemoteChaos|Fuzz' \
		-v ./internal/stream ./internal/live ./cmd/nonstrict

# The observability gate: export a Chrome trace from an overlapped run
# and round-trip it through the trace subcommand; require the measured
# stall attribution to sum to every first-invocation latency beside the
# simulator's predicted stalls; scrape /metrics during a fault-injected
# serve.
trace-smoke:
	$(GO) test -run 'TestRunRemoteTraceAndSummary|TestServeMetricsDuringChaos' -v ./cmd/nonstrict

# The fleet gate, under -race: 8 synthetic apps x 200 clients x 3 link
# classes replayed against the real in-process server; writes
# BENCH_fleet.json at the repo root with per-link p50/p99/p999
# first-invocation latency, mispredict and demand-fetch rates, and
# cache behaviour. Every client must finish clean.
fleet-smoke:
	$(GO) test -race -run TestBenchFleetSmoke -v ./internal/fleet

# The concurrency-soundness gate, under -race: the internal/check
# interleaving enumerators replay every schedule of the scripted cache
# and loader scenarios against the executable specs (zero divergence
# required), enumerate a crash at every step of the disk store's write
# protocol and every bounded breaker op sequence, then a few fixed-seed
# randomized stress rounds assert the pinned invariants (DESIGN.md §7).
# The nightly runs the long time-seeded soak; `nonstrict check` runs
# the same machinery from the CLI.
check-smoke:
	$(GO) test -race -run 'TestCacheInterleavings|TestLoaderInterleavings|TestStoreCrashInterleavings|TestBreakerInterleavings|TestStressShort' \
		-v ./internal/check

# The crash-safety gate, under -race: kill the server mid-stream at
# seeded offsets and restart it over the same artifact store (clients
# must resume via verified If-Range requests into byte-identical
# streams with zero rebuilds); the disk store's crash-step and
# corruption-quarantine tests; overload admission, priority bypass, and
# circuit-breaker behaviour; graceful-drain lifecycle; the fetch
# client's splice-refusal and Retry-After regressions; and the
# fleet-scale restart scenario.
restart-smoke:
	$(GO) test -race -run 'TestRestart|TestDiskStore|TestCacheStore|TestAdmission|TestPriorityBypassesQueueBound|TestBreaker|TestDrainLifecycle|TestFleetRestart' \
		-v ./internal/server ./internal/fleet
	$(GO) test -race -run 'TestFetchRefusesSpliceAfterSwap|TestFetchAdoptsSwapBeforeFirstByte|TestFetchRangeVerifiedSurvivesSwap|TestFetchHonorsRetryAfter' \
		-v ./internal/stream

# The cluster gate, under -race: the sharded-tier unit and integration
# tests (ring determinism, cold-storm single build, corrupt-transfer
# rejection, router failover/splice-refusal, the breaker's concurrent
# half-open probe race, the Retry-After parser regressions, the CLI
# round trip), the fleet's kill-one-node scenario, and the
# BENCH_cluster.json benchmark: cluster-wide builds <= keys under a
# 3-node cold storm, >= 2.5x streams/sec at 4 egress-capped nodes vs 1,
# and success_rate == 1 with a node killed mid-stream.
cluster-smoke:
	$(GO) test -race -v ./internal/cluster
	$(GO) test -race -run 'TestParseRetryAfter|TestFetchHonorsRetryAfter' -v ./internal/stream
	$(GO) test -race -run 'TestBreakerHalfOpenSingleProbeRace' -v ./internal/check
	$(GO) test -race -run 'TestClusterServeAndFetch' -v ./cmd/nonstrict
	$(GO) test -race -run 'TestFleetClusterKill|TestBenchClusterSmoke' -v ./internal/fleet

# The benchmark's self-test: perfbench is its own module (the root
# build never compiles it), so vet and race-test it against the
# packages it drives — live.Run, stream.LinkClass.Shape, the cluster
# harness — before the benchmark driver would find a break.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test -race ./...

ci: build lint test race bench-smoke bench-serve live-smoke chaos trace-smoke fleet-smoke check-smoke restart-smoke cluster-smoke perfbench-test

clean:
	$(GO) clean ./...
