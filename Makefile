GO ?= go

.PHONY: tier1 vet build test race bench bench-compile bench-codec bench-interp bench-serve bench-diskcache bench-cluster bench-warehouse cluster-smoke serve-smoke campaign-smoke warehouse-smoke fuzz fuzz-smoke check

# tier1 is the gate the roadmap pins: it must stay green.
tier1: build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs once per GOMAXPROCS value: one core catches lost wakeups
# the scheduler hides, several catch real races in the concurrency that
# remains: the speculative probe engine, a campaign's baseline and its
# fully optimistic test running side by side, the fuzz pool, service
# jobs and batches, and the irinterp rank goroutines. The driver's
# overlap and determinism tests then run 10 times at each value, and
# runs sharing one interpreter code cache (and MPI ranks) 5 times.
# The second line needs -count=1: the test cache does not key on
# GOMAXPROCS, so it would replay the first line's results.
RACE_DRIVER := 'TestOverlap|TestParallelProbeIsDeterministic'
race:
	GOMAXPROCS=1 $(GO) test -race ./...
	GOMAXPROCS=4 $(GO) test -race -count=1 ./...
	GOMAXPROCS=1 $(GO) test -race -count=10 -run $(RACE_DRIVER) ./internal/driver
	GOMAXPROCS=4 $(GO) test -race -count=10 -run $(RACE_DRIVER) ./internal/driver
	$(GO) test -race -count=5 -run 'TestSharedCodeConcurrentRuns|TestMPI' ./internal/irinterp

# bench smoke-runs the probing benchmarks (1 iteration each); use
# scripts/bench_probe.sh to record a BENCH_probe.json baseline.
bench:
	$(GO) test -run '^$$' -bench 'Probe_(Sequential|Parallel)' -benchtime=1x .

# bench-compile smoke-runs the analysis-cache compile benchmark; use
# scripts/bench_compile.sh to record a BENCH_compile.json baseline.
bench-compile:
	$(GO) test -run '^$$' -bench 'Compile_AnalysisCache' -benchtime=1x .

# bench-codec records BENCH_codec.json: the median cost of printing
# and of parsing back the IR text of every configuration's baseline and
# fully optimistic builds (BenchmarkIRCodec in internal/irtext).
bench-codec:
	scripts/bench_codec.sh

# bench-interp records BENCH_interp.json: per configuration, the
# median ns/op, Minstr/s, B/op and allocs/op of BenchmarkInterp_Apps
# (every run decodes) and BenchmarkInterp_AppsShared (runs share one
# code cache, as a campaign's tests do), with nproc and GOMAXPROCS.
bench-interp:
	scripts/bench_interp.sh

# bench-serve smoke-runs the oraql-serve latency benchmark; use
# scripts/bench_serve.sh to record a BENCH_serve.json baseline.
bench-serve:
	$(GO) test -run '^$$' -bench 'Serve_Compile' -benchtime=1x .

# bench-diskcache records BENCH_diskcache.json and doubles as the CI
# cross-process warm-start smoke: cold/warm `oraql sweep` from two
# processes over one -cache-dir (byte-identical, >=5x), then the
# seeded reprobe of an edited program (strictly fewer compiles, same
# convictions) and of an edit whose query stream shifts (at most 8
# compiles, strictly fewer than from scratch, same convictions).
bench-diskcache:
	scripts/bench_diskcache.sh

# bench-cluster records BENCH_cluster.json and doubles as the CI
# cluster smoke: 1/2/4-process fleets over a shared -cache-dir (one
# compile per config fleet-wide, warm sweep fully deduplicated,
# byte-identical exe hashes).
bench-cluster:
	scripts/bench_cluster.sh

# bench-warehouse records BENCH_warehouse.json and doubles as the CI
# warehouse smoke: 500-finding ingest throughput with idempotent
# re-ingest, two racing ingest processes over one shared directory
# (exactly one record per unique finding, filed by exactly one of
# them), query latency with byte-identical answers, and the scripted
# forensics campaign's cross-worker byte-identity.
bench-warehouse:
	scripts/bench_warehouse.sh

# warehouse-smoke runs the warehouse store, query, and CPG-export
# suites under the race detector (racing writers share a directory).
warehouse-smoke:
	$(GO) test -race -count=1 ./internal/warehouse/...

# cluster-smoke runs the in-process cluster/batch/retry suites under
# the race detector: shared-directory fleets (one compile per key,
# racing publishes), batch dedup, and the client retry policy; then the
# store's grow-only set races and concurrent campaigns of one program
# over one directory, whose fresh-handle reprobes serve their tests and
# runs from the campaign set and their final builds from TU artifacts,
# 10 times each.
cluster-smoke:
	$(GO) test -race -count=1 -run 'Cluster|Batch|Retry' ./internal/service/...
	$(GO) test -race -count=10 -run 'Set|MergeFuncVerdicts|GCRaces' ./internal/diskcache/
	$(GO) test -race -count=10 -run TestConcurrentCampaignsLoseNothing ./internal/driver

# serve-smoke mirrors the CI serve job: build the server, drive every
# endpoint with the checked-in example, assert the cache hit on
# /metrics, and check the SIGTERM drain.
serve-smoke:
	scripts/serve_smoke.sh

# campaign-smoke mirrors the CI campaign job: 30s of the script
# engine's no-panic fuzz target, every example campaign
# through `oraql run` (cross-worker byte-identity for the scripted
# default probe), the -max-steps sandbox, and one campaign through a
# live oraql-serve with -cache-dir via POST /v1/campaign.
campaign-smoke:
	$(GO) test ./internal/campaign -fuzz FuzzCampaignScriptNoPanic -fuzztime 30s -fuzzminimizetime 10x -run '^$$'
	scripts/campaign_smoke.sh

# fuzz-smoke mirrors the CI fuzz job: a 200-program differential
# campaign, the fault-injection triage self-test, and 30s of each
# native fuzz target, the compile-session and persisted-state ones
# included. Each target minimizes a new input for at most 10 execs,
# so the window goes to exploring; a failing input is still reported,
# less minimized.
fuzz-smoke:
	$(GO) run ./cmd/oraql fuzz -n 200 -seed 1 -v
	$(GO) run ./cmd/oraql fuzz -inject -n 10 -seed 1 -v
	$(GO) test ./internal/irtext -fuzz FuzzIRTextRoundtrip -fuzztime 30s -fuzzminimizetime 10x -run '^$$'
	$(GO) test ./internal/irtext -fuzz FuzzParseNoPanic -fuzztime 30s -fuzzminimizetime 10x -run '^$$'
	$(GO) test ./internal/difftest -fuzz FuzzDifferential -fuzztime 30s -fuzzminimizetime 10x -run '^$$'
	$(GO) test ./internal/pipeline -fuzz FuzzSessionMatchesCold -fuzztime 30s -fuzzminimizetime 10x -run '^$$'
	$(GO) test ./internal/aa -fuzz FuzzIsNonCapturedMatchesReference -fuzztime 30s -fuzzminimizetime 10x -run '^$$'
	$(GO) test ./internal/diskcache -fuzz FuzzDecodeEntry -fuzztime 30s -fuzzminimizetime 10x -run '^$$'
	$(GO) test ./internal/warehouse -fuzz FuzzSetMemberPayloads -fuzztime 30s -fuzzminimizetime 10x -run '^$$'
	$(GO) test ./internal/driver -fuzz FuzzCampaignSetMembers -fuzztime 30s -fuzzminimizetime 10x -run '^$$'
	$(GO) test ./internal/pipeline -fuzz FuzzTUArtifact -fuzztime 30s -fuzzminimizetime 10x -run '^$$'
	$(GO) test ./internal/warehouse -fuzz FuzzWarehouseRecord -fuzztime 30s -fuzzminimizetime 10x -run '^$$'

# fuzz runs an open-ended differential campaign; tune N/SEED/ARGS.
N ?= 1000
SEED ?= 1
fuzz:
	$(GO) run ./cmd/oraql fuzz -n $(N) -seed $(SEED) -v $(ARGS)

check: vet tier1 race bench bench-compile bench-serve bench-diskcache warehouse-smoke bench-warehouse serve-smoke campaign-smoke
