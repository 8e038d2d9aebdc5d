# CHRYSALIS — common developer targets.

GO ?= go

.PHONY: all ci fmt-check build vet test perfbench-test race race-cache race-explore bench bench-smoke experiments examples autsim-smoke fuzz cover clean serve-smoke cluster-smoke trace-smoke trace-cluster-smoke audit-smoke sim-diff converge-smoke warm-smoke

all: build vet test

# Everything the CI workflow runs.
ci: fmt-check build vet test perfbench-test race bench-smoke examples autsim-smoke serve-smoke cluster-smoke trace-smoke trace-cluster-smoke audit-smoke sim-diff converge-smoke warm-smoke

# Fail on any file gofmt would rewrite.
fmt-check:
	test -z "$$(gofmt -l .)"

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

# Race-check the concurrent evaluator-cache paths (fingerprint pins,
# warm tier, subsystem cache, GA worker pool). A focused local run:
# `race` already covers every test it selects, so ci does not repeat it.
race-cache:
	$(GO) test -race -run 'Cache|Concurrent' ./internal/explore/ ./internal/serve/

# Race-check the parallel search path end-to-end: the worker dispatcher,
# the Workers=1-vs-N determinism stress tests, the pin-map hammer and the
# ladder-set matrix and extension hammer. A focused local run: `race`
# already covers every test it selects, so ci does not repeat it.
race-explore:
	$(GO) test -race -run 'Parallel|Workers|Hammer|Shard|Dispatch|Concurrent|LadderSet' \
		./internal/search/ ./internal/explore/ ./internal/serve/

# One-iteration pass over every benchmark: catches bit-rotted bench
# code without paying for steady-state timing.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Regenerate every paper table/figure at full budget.
experiments:
	$(GO) run ./cmd/experiments -run all -budget 400 -pareto 600 -seed 1 -out experiments_full.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/solarsizing
	$(GO) run ./examples/acceldesign
	$(GO) run ./examples/customharvester
	$(GO) run ./examples/jsonworkload

# cmd/autsim has no tests: replay one MSP430 design point with an event
# trace and the voltage waveform, the README's Eyeriss design point, and
# the per-layer -analyze profile.
autsim-smoke:
	$(GO) run ./cmd/autsim -workload har -panel 8 -cap 100e-6 -trace 5 -waveform >/dev/null
	$(GO) run ./cmd/autsim -workload resnet18 -arch eyeriss -pe 128 -cache 1024 -panel 20 -cap 1e-3 -env dark >/dev/null
	$(GO) run ./cmd/autsim -workload har -analyze >/dev/null

# Each target's seed corpus also runs in `go test ./...`.
fuzz:
	$(GO) test ./internal/dnn/ -run '^$$' -fuzz FuzzParseJSON -fuzztime 30s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz FuzzParseTraceparent -fuzztime 30s
	$(GO) test ./internal/wal/ -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime 30s
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzOpenSnapshot -fuzztime 30s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDesignRequest -fuzztime 30s

# End-to-end chrysalisd check: boot on a random port, run a design job
# to completion, assert the resubmission is a cache hit.
serve-smoke:
	$(GO) test ./internal/serve/ -run TestServeSmoke -v

# End-to-end warm-start check: on a warm-enabled daemon a cold job fills
# the tier and a near-duplicate job reports warm hits, with a design
# bit-identical to a tier-less daemon's; plus, under -race, the warm
# rows of the explore determinism matrix and the concurrent-search
# hammer on one shared tier (the hammer has no subtests, so the
# second-level `warm` filter selects only the matrix's warm rows).
warm-smoke:
	$(GO) test ./internal/serve/ -run TestWarmSmoke -v
	$(GO) test -race ./internal/explore/ -run '^(TestExploreWorkersBitIdentical|TestWarmTierConcurrentSearches)$$/^warm$$' -v

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
# The bit-identity golden pins simulator and flight-recorder outputs
# bit for bit across refactors of the step kernel and the recorder, and
# the recorder's bin store is checked against a flat-slice reference.
sim-diff:
	$(GO) test ./internal/sim/ -run 'TestDifferential|TestEvent|TestBitIdentityGolden|TestRecorderStoreMatchesFlat' -count=1
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
# conservation finding), plus the daemon-side audit and waveform test.
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
