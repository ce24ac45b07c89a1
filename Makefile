GO ?= go

.PHONY: verify ci build vet test bench-module race engine-cpus fuzz-store fuzz-fingerprint experiments cover bench bench-serve

# ci is the gate .github/workflows/ci.yml runs on every push and pull
# request: build vet test bench-module race engine-cpus fuzz-store
# fuzz-fingerprint. That is tier-1 (build + test) plus vet, vet and tests
# of the bench/ module, the race detector across every package, the
# engine equivalence tests at 1, 2, 4 and 8 CPUs (engine-cpus), a 10 s
# fuzz of the evidence store against its reference model (fuzz-store) and
# a 10 s fuzz of the job fingerprint and its encoders (fuzz-fingerprint).
# Every other gate is a Go test
# that `test` and `race` run: the result golden over the scenario matrix
# (TestScenarioResultsMatchGolden), the allocation gate
# (TestAllocBaseline), the sweep's node-round gate
# (TestSweepSharesOneResultPerSimulation), and the daemon and CLI
# contracts, which cmd/rbcastd and cmd/broadcast-sim test in-process. The
# benchmarks and bench-serve stay out: they need a quiet machine and run
# in the nightly workflow instead.
ci: build vet test bench-module race engine-cpus fuzz-store fuzz-fingerprint

# verify is the full pre-merge gate; it is exactly what CI runs.
verify: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# bench-module vets and tests the serving benchmark harness. bench/ is its
# own Go module, so the root ./... patterns above never reach it; without
# this step a server API change that breaks the harness would only fail in
# the nightly bench-serve job.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# engine-cpus runs the engine equivalence tests under the race detector at
# 1, 2, 4 and 8 CPUs. The concurrent engine starts max(GOMAXPROCS, 2)
# workers, so every CPU count splits the rounds differently, and each must
# still agree with the sequential engine. The three sweep ≡ scalar tests
# ride along: the sweep executor's workers share one Result among the
# jobs of an execution, and the server shares one packed result among
# them.
engine-cpus:
	$(GO) test -race -cpu 1,2,4,8 -run '^(TestEngineEquivalenceSweep|TestTraceEngineEquivalence|TestMetricsAgreeAcrossEngines|TestEquivalenceWithSequentialEngine|TestBV4ConcurrentEngine|TestSweepCrashRoundFamilies|TestSweepExecutionKeySharing|TestSweepHeterogeneous)$$' . ./internal/runtime ./internal/protocol

# fuzz-store fuzzes the evidence store for 10 s against FuzzStore's
# reference model: every Add and AddDirect result and the order of Chains
# and ValueChains, over the store's one-copy, index-linked chain logs. The
# nightly fuzz job runs it again with the other fuzz targets.
fuzz-store:
	$(GO) test -run '^$$' -fuzz '^FuzzStore$$' -fuzztime 10s ./internal/evidence

# fuzz-fingerprint fuzzes the wire surface's identity for 10 s
# (FuzzJobFingerprint): a strictly decoded job keeps its fingerprint
# through a JSON round trip and every alias swap, and its append-built
# canonical bytes and struct execution key agree with the fmt-rendered
# references in canonical_ref_test.go. The fingerprint keys the result
# cache, and its encoder is written by hand. Minimizing a new interesting
# input may run up to a minute by default, adding no execs meanwhile: two
# of three 10 s runs had intervals at 0 execs/s. 100 executions per
# minimization keep the budget on new inputs.
fuzz-fingerprint:
	$(GO) test -run '^$$' -fuzz '^FuzzJobFingerprint$$' -fuzztime 10s -fuzzminimizetime 100x .

experiments:
	$(GO) run ./cmd/experiments

# cover runs the test suite with coverage and prints a per-package summary
# plus the total; the profile lands in cover.out for `go tool cover -html`.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# bench times rbcast.Run on every scenario of the canonical matrix
# (BenchmarkMatrix, one sub-benchmark per scenario). It reports and gates
# nothing; TestAllocBaseline gates the allocations on every push (see
# PERFORMANCE.md).
bench:
	$(GO) test -run '^$$' -bench '^BenchmarkMatrix$$' -benchmem .

# bench-serve runs the rbcastd serving benchmark (bench/, defined by
# BENCHMARK.json) over all five workloads at seed 1. It exits 1 on any
# wrong response body, so it doubles as an end-to-end correctness run of
# the serving path; its timings are reported, not gated. Set
# BENCH_SERVE_REPORT to a file path to also keep the full JSON report.
bench-serve:
	bash bench/run.sh --seed 1 $(if $(BENCH_SERVE_REPORT),--report "$(BENCH_SERVE_REPORT)")
