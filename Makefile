# CHRYSALIS — common developer targets.

GO ?= go

.PHONY: all ci build vet test perfbench-test race race-cache race-explore bench bench-json bench-smoke bench-guard experiments examples fuzz cover clean serve-smoke cluster-smoke trace-smoke trace-cluster-smoke audit-smoke sim-diff converge-smoke warm-smoke

all: build vet test

# Everything the CI workflow runs.
ci: build vet test perfbench-test race race-explore bench-smoke bench-guard serve-smoke cluster-smoke trace-smoke trace-cluster-smoke audit-smoke sim-diff converge-smoke warm-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repository benchmark (perfbench/) is a module of its own that
# `go test ./...` at the root does not reach; run its tests with the
# module settings perfbench/run.sh builds it under.
perfbench-test:
	cd perfbench && GOWORK=off GOFLAGS=-mod=mod GOTOOLCHAIN=local $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Race-check the concurrent evaluator-cache paths (fingerprint cache,
# subsystem cache, GA worker pool).
race-cache:
	$(GO) test -race -run 'Cache|Concurrent' ./internal/explore/ ./internal/serve/

# Race-check the parallel search path end-to-end: the worker dispatcher,
# the Workers=1-vs-N determinism stress tests and the shard-cache hammer.
race-explore:
	$(GO) test -race -run 'Parallel|Workers|Hammer|Shard|Dispatch|Concurrent' \
		./internal/search/ ./internal/explore/ ./internal/serve/

# One-iteration pass over every benchmark: catches bit-rotted bench
# code without paying for steady-state timing.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Benchmark trajectory record: run the evaluation-engine
# micro-benchmarks at a fixed iteration count and serialize the
# results to a committed JSON file for cross-PR comparison. The search
# benchmarks additionally run at -cpu 1,4 so the record captures both
# the serial regression check and the parallel speedup; -baseline
# computes speedup_vs_baseline ratios against the previous PR's record.
BENCH_JSON ?= BENCH_PR10.json
BENCH_BASELINE ?= BENCH_PR9.json
BENCH_MICRO = CostModel|PlanWorkload|AnalyticEvaluate|StepSimulator|EventSimulator|NSGAFront
BENCH_MULTI = GASearch|AccelSearch|GASearchWarm|AccelSearchWarm

bench-json:
	{ $(GO) test -run='^$$' -bench='^Benchmark($(BENCH_MICRO))$$' -benchtime=2000x -benchmem . ; \
	  $(GO) test -run='^$$' -bench='^Benchmark($(BENCH_MULTI))$$' -benchtime=300x -benchmem -cpu 1,4 . ; } \
		| $(GO) run ./cmd/benchjson -note "micro fixed -benchtime=2000x (100x undersampled the sub-5us benches), search 300x; Warm variants run the same search against a primed process-lifetime tier; speedup_vs_baseline = baseline ns/op / new ns/op" \
			-baseline $(BENCH_BASELINE) -out $(BENCH_JSON)

# Benchmark regression gate: re-run the end-to-end search benchmarks
# (the paths the tracing/metrics hooks ride) and fail if either
# regressed more than BENCH_GUARD_MAX vs the newest committed record
# (benchguard auto-discovers the highest-numbered BENCH_*.json, so this
# target needs no edit when a new PR lands its record). The candidate
# runs -count=3 and benchguard judges the fastest of the three — shared
# CI machines swing tens of percent minute to minute, and best-of-N is
# the estimate least contaminated by that noise. Micro benches are too
# noisy even for that, so only the guarded names can fail the run.
BENCH_GUARD_MAX ?= 0.25
BENCH_GUARD_TMP ?= /tmp/chrysalis-bench-guard.json
bench-guard:
	$(GO) test -run='^$$' -bench='^Benchmark($(BENCH_MULTI))$$' -benchtime=300x -count=3 -benchmem -cpu 1,4 . \
		| $(GO) run ./cmd/benchjson -out $(BENCH_GUARD_TMP)
	$(GO) run ./cmd/benchguard -baseline auto -candidate $(BENCH_GUARD_TMP) \
		-bench 'GASearch,AccelSearch,GASearchWarm,AccelSearchWarm' -max-regress $(BENCH_GUARD_MAX)

# Regenerate every paper table/figure at full budget.
experiments:
	$(GO) run ./cmd/experiments -run all -budget 400 -pareto 600 -seed 1 -out experiments_full.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/solarsizing
	$(GO) run ./examples/acceldesign
	$(GO) run ./examples/customharvester
	$(GO) run ./examples/jsonworkload

fuzz:
	$(GO) test ./internal/dnn/ -fuzz FuzzParseJSON -fuzztime 30s

# End-to-end chrysalisd check: boot on a random port, run a design job
# to completion, assert the resubmission is a cache hit.
serve-smoke:
	$(GO) test ./internal/serve/ -run TestServeSmoke -v

# End-to-end warm-start check: on a warm-enabled daemon a cold job fills
# the tier and a near-duplicate job reports warm hits, with a design
# bit-identical to a tier-less daemon's; plus the explore-level
# warm-vs-cold determinism contract under -race.
warm-smoke:
	$(GO) test ./internal/serve/ -run TestWarmSmoke -v
	$(GO) test -race ./internal/explore/ -run 'TestWarmColdWorkersBitIdentical|TestWarmTierConcurrentSearches'

# End-to-end durable-cluster check: three daemons on loopback resolve a
# design submitted to all of them exactly once (consistent-hash ring +
# cluster single-flight), a dead peer degrades to local evaluation
# without failing a request, and a crashed daemon recovers its queued
# and finished jobs from the WAL on restart.
cluster-smoke:
	$(GO) test ./internal/serve/ -run 'TestClusterSingleFlight|TestClusterPeerDownDegradesLocally|TestWALCrashRecovery' -v

# End-to-end observability check: run a traced design search with a
# simulator verification replay, then validate the exported Chrome
# trace-event JSON (phases, ordering, durations).
trace-smoke:
	$(GO) run ./cmd/chrysalis -workload har -budget 100 -verify -trace-out /tmp/chrysalis-trace.json >/dev/null
	$(GO) run ./cmd/tracecheck -min-events 10 /tmp/chrysalis-trace.json

# Event-vs-step simulator agreement: the differential matrix (every
# scenario preset under every checkpoint policy, counters exact and
# continuous outputs within 1e-6 relative), plus an end-to-end CLI
# replay through -sim-mode differential, which fails on any divergence.
sim-diff:
	$(GO) test ./internal/sim/ -run 'TestDifferential|TestEvent' -count=1
	$(GO) run ./cmd/chrysalis -workload har -budget 100 -verify -sim-mode differential >/dev/null

# End-to-end distributed-tracing check: a delegated job across an
# in-process 3-node cluster exports ONE stitched trace (the client's
# trace ID, spans from both nodes), the job timeline endpoint reports
# the golden phase sequence, and /v1/fleet aggregates every peer.
trace-cluster-smoke:
	$(GO) test -race ./internal/serve/ \
		-run 'TestClusterStitchedTrace|TestClusterBreakerOpenInstant|TestTimelineEndpoint|TestFleetEndpoint|TestWALMetricsExported' -v

# End-to-end flight-recorder check: a design search with an audited
# verification replay through the CLI (non-zero exit on any energy-
# conservation finding), plus the daemon-side waveform/dashboard test.
audit-smoke:
	$(GO) run ./cmd/chrysalis -workload har -budget 100 -audit -waveform-out /tmp/chrysalis-wave.csv >/dev/null
	$(GO) test ./internal/serve/ -run TestAuditSmoke -v

# End-to-end search-observatory check: a short GA job with the plateau
# early stop enabled must serve a monotone-best convergence series,
# stream one "quality" SSE event per generation, and replay the series
# from the result cache — plus the Pareto-job front-quality indicators.
converge-smoke:
	$(GO) test ./internal/serve/ -run 'TestConvergeSmoke|TestConvergenceParetoJob' -v

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
