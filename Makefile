GO ?= go

# Pinned system size for the root analysis micro-benchmarks (make bench),
# so their numbers are comparable across runs.
ASTRA_BENCH_NODES ?= 256

.PHONY: build test verify bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the robustness gate: static checks (every Go file
# gofmt-clean, then go vet), the dead-code census (every production
# function outside bench/ must be linked by some program built from
# ./cmd, ./examples or bench, or be named with its reason in
# linkcensus_test.go's keep-list; it builds those binaries, so plain
# go test skips it unless ASTRA_LINK_CENSUS=1), the full suite
# including the differential dirty-telemetry harness
# (robustness_test.go), each stage's allocation
# ceiling (an ordinary testing.AllocsPerRun test in the package that
# owns the stage) and astrad's overload contracts on the real daemon
# (balanced books across a restart under shedding, a checkpoint breaker
# that opens over a stalling disk while ingest goes on, a header timeout
# that cuts a client stalled mid-header), the whole-path benchmark
# module's vet and tests (bench/ is a module of its own, so the root
# build cannot see it break when exported API changes; it is the one
# performance gate, and comparing two commits with it runs outside
# verify, see bench/README.md), the race detector over the whole suite
# (the concurrent ingest/poller paths and Study.Analyze's task group
# among them), and a short fuzz smoke over the hostile-input parsers
# (syslog lines, whole scans resumed from a persisted checkpoint, the
# columnar decoder, dataset manifests, and the astrad state ladder,
# seeded with sealed v5 images and the oversized header counts that once
# killed the loader), over the incremental bank classification (random
# Add/AppendFaults interleavings must equal a fresh classification,
# Errors included), and over the stream engine's packed record log
# (random field values appended through the log must come back exactly
# from Records() and a checkpoint handle, and the handle's colfmt
# encoding must decode back to them), and over astrad's warm restore (any
# bytes must restore into the record log exactly when colfmt.Decode plus
# CheckRanges accept them, to the engine IngestBatch of Decode's records
# builds). TestDaemonStateLadderRecovery also runs 20 times on its own:
# it once flaked whenever a caught-up daemon never checkpointed, so a
# regression in the idle-point checkpoint shows here first.
# ASTRA_CRASH_TESTS=1 additionally sweeps the kill/resume differential
# test over every I/O operation instead of its default 24-point sample.
# The online subsystem gets an explicit race-enabled pass: the stream
# engine's batch-equivalence property tests, the tail/checkpoint resume
# differentials, and the astrad kill/restart and overload tests are the
# contracts most exposed to concurrency bugs, so they run under the race
# detector even when the blanket -race sweep is trimmed locally. So do
# astrareport's buildStudy tests, three times over: buildStudy rebuilds
# the fleet context and reads and clusters the file as two concurrent
# tasks, and repeated runs vary which of the two finishes (or fails)
# first.
verify:
	$(GO) build ./...
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	ASTRA_LINK_CENSUS=1 $(GO) test -count 1 -run '^TestEveryProductionFunctionIsLinked$$' .
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -timeout 30m -count 1 ./internal/stream ./internal/serve ./internal/overload ./internal/syslog ./internal/colfmt ./internal/supervise ./internal/predict ./cmd/astrad
	$(GO) test -race -count 3 -run '^TestBuildStudy' ./cmd/astrareport
	$(GO) test -run '^$$' -fuzz '^FuzzParseLine$$' -fuzztime 5s ./internal/syslog
	$(GO) test -run '^$$' -fuzz '^FuzzScan$$' -fuzztime 5s ./internal/syslog
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s ./internal/colfmt
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime 5s ./internal/atomicio
	$(GO) test -run '^$$' -fuzz '^FuzzLoadStateLadder$$' -fuzztime 5s ./cmd/astrad
	$(GO) test -run '^$$' -fuzz '^FuzzRiskEndpoint$$' -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzBankStateIncremental$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRecordLog$$' -fuzztime 5s ./internal/stream
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 5s ./internal/stream
	$(GO) test -count 20 -run '^TestDaemonStateLadderRecovery$$' ./cmd/astrad
	@if [ -n "$$ASTRA_CRASH_TESTS" ]; then ASTRA_CRASH_TESTS=1 $(GO) test -run 'TestExportCrashResumeDifferential' ./internal/dataset; fi

# bench runs the root analysis micro-benchmarks (bench_test.go) at the
# pinned system size, for profiling one analysis step; they gate
# nothing. The whole-path benchmark, and the one performance gate, is
# bench/ (see bench/README.md). Each stage's allocation ceiling is an
# ordinary testing.AllocsPerRun test in the package that owns the stage,
# so `make test` holds it.
bench:
	ASTRA_BENCH_NODES=$(ASTRA_BENCH_NODES) $(GO) test -run '^$$' -bench . -benchmem .
