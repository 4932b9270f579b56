GO ?= go

# Engine microbenchmarks gating the compiled-engine performance claims
# (see DESIGN.md "Performance" and EXPERIMENTS.md).
ENGINE_BENCH = BenchmarkStepThroughput|BenchmarkSilenceCheck|BenchmarkRunConverge|BenchmarkBatchThroughput|BenchmarkConfigKey|BenchmarkConfigAppendKey|BenchmarkConfigMultisetKey|BenchmarkConfigAppendMultisetKey|BenchmarkCorrupt

# Parallel search / exploration benchmarks gating the worker-pool
# claims (see DESIGN.md "Parallel model checking" and EXPERIMENTS.md).
SEARCH_BENCH = BenchmarkSymmetricNaming|BenchmarkBuildLarge|BenchmarkGraphNodeID

# Fault-layer benchmarks gating the robustness claims: the nil-injector
# fast path must stay allocation-free and within the engine baseline
# (see docs/robustness.md and EXPERIMENTS.md).
FAULT_BENCH = BenchmarkRunnerNilInjector|BenchmarkRunnerEmptyInjector|BenchmarkRunnerCrashSuppression|BenchmarkE22Stabilize

# Service closed-loop load benchmark gating the ppserved latency and
# throughput numbers (see docs/service.md and EXPERIMENTS.md).
SERVE_BENCH = BenchmarkServeLoad

# Tracing benchmarks gating the span layer: per-span emission cost and
# the supervised runner with tracing off (must stay 0 allocs/op and
# within noise of BENCH_PR5's supervised numbers) vs on (see
# docs/observability.md "Traces").
TRACE_BENCH = BenchmarkSpanEmit|BenchmarkSpanEmitJournal|BenchmarkSupervisedNilTrace|BenchmarkSupervisedTraced

# Count-engine benchmarks gating the large-N scaling claims: per-step
# cost flat in N against the agent engine's baseline, plus the
# fenwick-vs-alias sampler head-to-head that picks the "auto" default
# (see DESIGN.md "Count-based engine" and EXPERIMENTS.md).
COUNT_BENCH = BenchmarkCountEngineScale|BenchmarkAgentEngineScale|BenchmarkCountSampler|BenchmarkAliasRebuild

# Durability benchmarks gating the job-store claims: WAL append vs the
# fsync-bearing finalize, boot-time replay scaling with log size, and
# cold admission vs cache-hit submission latency (see docs/service.md
# "Durability and the result cache" and EXPERIMENTS.md).
STORE_BENCH = BenchmarkWALAppend|BenchmarkWALFinalize|BenchmarkWALReplay|BenchmarkAdmitColdMemory|BenchmarkAdmitColdWAL|BenchmarkAdmitCacheHit

# Sharded-execution benchmarks gating the scale-out claims: 1-node vs
# 2/4-peer wall clock for the same batch, plus degraded-mode throughput
# with a dead peer in rotation (see docs/service.md "Sharded
# execution").
DIST_BENCH = BenchmarkDistSharded|BenchmarkDistDegraded

# Campaign-pipeline benchmarks gating the ppanalyze throughput claims:
# cells/sec through the in-process runner, over the v1 job API, and on
# an all-cache-hit second pass (see docs/pipeline.md).
GRID_BENCH = BenchmarkGridLocal|BenchmarkGridServer|BenchmarkGridServerCached

.PHONY: check vet build test test-bench race race-search race-fault race-serve race-count race-store race-dist race-grid fmt fuzzbuild bench bench-engine bench-search bench-fault bench-serve bench-trace bench-count bench-store bench-dist bench-grid serve

# check is the single entry point: everything CI (or a reviewer) needs.
check: vet build race race-search race-fault race-serve race-count race-store race-dist race-grid fmt fuzzbuild test-bench

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-bench runs the benchmark module's tests. bench/ is a Go module
# of its own, so ./... does not reach it; its TestSmoke pins the
# first-pass summary digests, which guards every campaign artifact
# byte for byte end to end.
test-bench:
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./...

# race-search re-runs the parallel explorer and sharded search under
# the race detector with caching disabled, so every check run actually
# exercises the worker-pool interleavings.
race-search:
	$(GO) test -race -count=1 ./internal/explore ./internal/search

# race-fault re-runs the fault layer and supervised batch runner under
# the race detector with caching disabled: supervised batches share
# sinks and injector wiring across worker goroutines.
race-fault:
	$(GO) test -race -count=1 ./internal/fault ./internal/sim ./internal/experiments

# race-serve re-runs the service and the observability layer under the
# race detector with caching disabled: the service scrapes live
# observers and shares job buffers between workers and HTTP streams.
race-serve:
	$(GO) test -race -count=1 ./internal/serve ./internal/obs

# race-count re-runs the count-engine tests (including the KS
# differential and RunCountBatch, which shares a sink across worker
# goroutines) under the race detector with caching disabled.
race-count:
	$(GO) test -race -count=1 -run 'Count' ./internal/sim ./internal/serve ./internal/experiments

# race-store re-runs the durability layer under the race detector with
# caching disabled: the WAL shares per-job appenders between workers and
# the replay path, and the cancel-vs-pickup race writes store records
# from two goroutines.
race-store:
	$(GO) test -race -count=1 ./internal/serve/store
	$(GO) test -race -count=1 -run 'TestCancelRacePickup|TestCacheHitServes|TestRestartRestores|TestRestartRequeues|TestLateEmit|TestBufferSpill' ./internal/serve

# race-dist re-runs the lease coordinator and the chaos/sharding suite
# under the race detector with caching disabled: the coordinator shares
# lease state between peer executor goroutines, the local fallback loop
# and the delivery path, and the chaos proxies race it from real HTTP
# handlers.
race-dist:
	$(GO) test -race -count=1 ./internal/dist
	$(GO) test -race -count=1 -run 'TestDist' ./internal/serve

# race-grid re-runs the campaign pipeline under the race detector with
# caching disabled: campaigns fan cells out across worker goroutines
# that share the spec, the result accumulator and (in server mode) one
# peer's health window.
race-grid:
	$(GO) test -race -count=1 ./internal/grid ./cmd/ppanalyze

# serve runs the simulation service locally on :8080.
serve:
	$(GO) run ./cmd/ppserved -addr :8080

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# fuzzbuild compiles every fuzz target and runs each on its seed corpus
# only (no fuzzing time), so a broken target fails check.
fuzzbuild:
	$(GO) test -run='^Fuzz' -count=1 ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-engine runs the engine microbenchmarks three times each and
# writes the machine-readable go-test JSON stream to BENCH_PR2.json
# (one line per event; benchmark results are in Output fields).
bench-engine:
	$(GO) test -json -run='^$$' -bench='$(ENGINE_BENCH)' -benchmem -count=3 ./... > BENCH_PR2.json
	@echo "wrote BENCH_PR2.json ($$(wc -l < BENCH_PR2.json) events)"

# bench-search runs the parallel search/exploration benchmarks at
# workers 1/2/8 and writes the go-test JSON stream to BENCH_PR3.json.
# Speedup beyond workers=1 requires a multi-core host; see
# EXPERIMENTS.md "Parallel search and exploration".
bench-search:
	$(GO) test -json -run='^$$' -bench='$(SEARCH_BENCH)' -benchmem -count=3 ./internal/explore ./internal/search > BENCH_PR3.json
	@echo "wrote BENCH_PR3.json ($$(wc -l < BENCH_PR3.json) events)"

# bench-fault runs the fault-layer benchmarks and writes the go-test
# JSON stream to BENCH_PR4.json. The nil-injector benchmark must report
# 0 allocs/op.
bench-fault:
	$(GO) test -json -run='^$$' -bench='$(FAULT_BENCH)' -benchmem -count=3 . ./internal/sim > BENCH_PR4.json
	@echo "wrote BENCH_PR4.json ($$(wc -l < BENCH_PR4.json) events)"

# bench-serve runs the service load benchmark (closed loop at 1/8/64
# clients over httptest) and writes the go-test JSON stream to
# BENCH_PR5.json.
bench-serve:
	$(GO) test -json -run='^$$' -bench='$(SERVE_BENCH)' -benchmem -count=3 ./internal/serve > BENCH_PR5.json
	@echo "wrote BENCH_PR5.json ($$(wc -l < BENCH_PR5.json) events)"

# bench-trace runs the span-layer benchmarks plus the nil-trace
# zero-alloc assertion (TestSupervisedNilTraceAllocs) and writes the
# go-test JSON stream to BENCH_PR6.json.
bench-trace:
	$(GO) test -json -run='TestSupervisedNilTraceAllocs' -bench='$(TRACE_BENCH)' -benchmem -count=3 ./internal/obs ./internal/sim > BENCH_PR6.json
	@echo "wrote BENCH_PR6.json ($$(wc -l < BENCH_PR6.json) events)"

# bench-count runs the count-engine scaling and sampler benchmarks and
# writes the go-test JSON stream to BENCH_PR7.json. The scale series
# must stay flat: steps/sec within 2x across N = 10^4..10^8.
bench-count:
	$(GO) test -json -run='^$$' -bench='$(COUNT_BENCH)' -benchmem -count=3 ./internal/sim > BENCH_PR7.json
	@echo "wrote BENCH_PR7.json ($$(wc -l < BENCH_PR7.json) events)"

# bench-store runs the durability benchmarks (WAL append/finalize/replay
# plus cold-vs-cached admission) and writes the go-test JSON stream to
# BENCH_PR8.json.
bench-store:
	$(GO) test -json -run='^$$' -bench='$(STORE_BENCH)' -benchmem -count=3 ./internal/serve ./internal/serve/store > BENCH_PR8.json
	@echo "wrote BENCH_PR8.json ($$(wc -l < BENCH_PR8.json) events)"

# bench-dist runs the sharded-execution benchmarks (1-node vs 2/4-peer
# wall clock, degraded mode with a dead peer) and writes the go-test
# JSON stream to BENCH_PR9.json. Wall-clock speedup from peers needs a
# multi-core host; on one core the series prices pure coordination
# overhead.
bench-dist:
	$(GO) test -json -run='^$$' -bench='$(DIST_BENCH)' -benchmem -count=3 ./internal/serve > BENCH_PR9.json
	@echo "wrote BENCH_PR9.json ($$(wc -l < BENCH_PR9.json) events)"

# bench-grid runs the campaign-pipeline benchmarks (local vs server vs
# cache-hit cells/sec on a fixed 4-cell grid) and writes the go-test
# JSON stream to BENCH_PR10.json.
bench-grid:
	$(GO) test -json -run='^$$' -bench='$(GRID_BENCH)' -benchmem -count=3 ./internal/grid > BENCH_PR10.json
	@echo "wrote BENCH_PR10.json ($$(wc -l < BENCH_PR10.json) events)"
