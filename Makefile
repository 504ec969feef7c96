GO ?= go

# Pinned system size for benchmarks and the parallel determinism gate, so
# numbers (and test cost) are comparable across runs.
ASTRA_BENCH_NODES ?= 256

.PHONY: build test verify bench bench-serve bench-guard

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the robustness gate: static checks (every Go file gofmt-clean,
# then go vet), the full suite including
# the differential dirty-telemetry harness (robustness_test.go), the
# whole-path benchmark module's vet and tests (bench/ is a module of its
# own, so the root build cannot see it break when exported API changes),
# the race detector over the concurrent ingest/poller paths, the parallel
# determinism contract (serial vs parallel batch pipelines must be
# bit-identical) under the race detector at a pinned scale, and a short
# fuzz smoke over the hostile-input parsers (syslog lines, whole scans
# resumed from a persisted checkpoint, the columnar decoder,
# dataset manifests, and the astrad state ladder, seeded with sealed v5
# images and the oversized header counts that once killed the loader),
# over the incremental bank classification (random
# Add/Merge/AppendFaults interleavings must equal a fresh
# classification, Errors included), and over the stream engine's packed
# record log (random field values appended through the log must come
# back exactly from Records() and a checkpoint handle, and the handle's
# colfmt encoding must decode back to them).
# ASTRA_CRASH_TESTS=1 additionally sweeps the kill/resume differential
# test over every I/O operation instead of its default 24-point sample.
# The online subsystem gets an explicit race-enabled pass: the stream
# engine's batch-equivalence property tests, the tail/checkpoint resume
# differentials, and the astrad kill/restart test are the contracts most
# exposed to concurrency bugs, so they run under the race detector even
# when the blanket -race sweep is trimmed locally. The pinned-scale line
# also runs the stream engine's feature differential (per-bank
# prediction features over random micro-batches must equal a batch
# replay).
verify:
	$(GO) build ./...
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -timeout 30m -count 1 ./internal/stream ./internal/serve ./internal/overload ./internal/syslog ./internal/colfmt ./internal/supervise ./internal/predict ./cmd/astrad ./cmd/astraload
	ASTRA_BENCH_NODES=64 $(GO) test -race -timeout 30m -run 'Parallel|Determinism' ./...
	$(GO) test -run '^$$' -fuzz '^FuzzParseLine$$' -fuzztime 5s ./internal/syslog
	$(GO) test -run '^$$' -fuzz '^FuzzScan$$' -fuzztime 5s ./internal/syslog
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s ./internal/colfmt
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime 5s ./internal/atomicio
	$(GO) test -run '^$$' -fuzz '^FuzzLoadStateLadder$$' -fuzztime 5s ./cmd/astrad
	$(GO) test -run '^$$' -fuzz '^FuzzRiskEndpoint$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzBankStateIncremental$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRecordLog$$' -fuzztime 5s ./internal/stream
	@if [ -n "$$ASTRA_CRASH_TESTS" ]; then ASTRA_CRASH_TESTS=1 $(GO) test -run 'TestExportCrashResumeDifferential' ./internal/dataset; fi
	@if [ -n "$$ASTRA_BENCH_GUARD" ]; then $(MAKE) bench-guard; fi

# bench runs the root analysis micro-benchmarks (bench_test.go) at the
# pinned system size. The whole-path benchmark is bench/ (see
# bench/README.md), and each stage's allocation ceiling is an ordinary
# testing.AllocsPerRun test in the package that owns the stage.
bench:
	ASTRA_BENCH_NODES=$(ASTRA_BENCH_NODES) $(GO) test -run '^$$' -bench . -benchmem .

# bench-serve runs the overload/chaos harness (cmd/astraload) at a
# pinned small scale and writes BENCH_serve.json, the serving-path
# baseline bench-guard holds (API p50/p99 on the rendered and ETag/304
# paths, per-site ingest/shed rows, recovery time) under sustained
# ingest + bursts + slow clients + a stalling checkpoint disk. Two
# federated sites exercise the cross-site rollup under load. The
# scenario is deliberately drain-throttled so the shed rate is overload
# arithmetic, not machine speed. The -recovery phase then runs the
# kill + corrupt-newest-generation + rotate-mid-tail chaos sequence and
# pins crash-recovery convergence (and its time) in the same baseline.
bench-serve:
	$(GO) run ./cmd/astraload -seed 1 -nodes 64 -sites 2 \
		-duration 3 -ingest-rate 100000 \
		-burst-factor 3 -burst-at 1 -burst-for 0.5 \
		-api-clients 4 -api-qps 400 -slow-clients 2 \
		-queue-depth 32768 -drain-batch 128 -drain-interval 5 \
		-disk-stall 0.5 -disk-stall-for 100 -checkpoint-every 100 -checkpoint-timeout 50 \
		-recovery -recovery-nodes 48 -recovery-keep 3 -recovery-bound 30000 \
		-out BENCH_serve.json

# bench-guard fails when the serving path regresses against
# BENCH_serve.json: p99 latency beyond 10% + slack, a shed rate beyond
# what the scenario's configured rates imply, a crash-recovery time beyond
# the baseline + slack, a recovery that fails to converge, or any
# overload-contract violation. Opt into it during verify with
# ASTRA_BENCH_GUARD=1 (it re-runs its fixture, so it is not free).
bench-guard:
	$(GO) run ./cmd/astraload -guard -against BENCH_serve.json
