GO ?= go

.PHONY: verify ci build vet test bench-module race experiments serve-smoke trace-smoke load-smoke sweep-smoke obs-smoke cover bench bench-smoke bench-sweep bench-serve

# ci is the gate .github/workflows/ci.yml runs on every push and pull
# request: tier-1 (build + test) plus vet, vet and tests of the bench/
# module, the race detector across every package, the rbcastd serving
# smoke test, the execution-trace smoke test, the saturation/backpressure
# smoke test, the /v1/sweep planner smoke test, the flight-recorder/
# live-progress smoke test, the benchmark-scenario golden-hash smoke, and
# the sweep-engine gate (bench-sweep: about a second, gated on the
# deterministic node-round ratio, so a noisy runner cannot flake it). The
# allocation gate over the scenario matrix is a Go test (TestAllocBaseline),
# so `test` runs it. The full benchmark suite and bench-serve stay out —
# they need a quiet machine and run in the nightly workflow instead.
ci: build vet test bench-module race serve-smoke trace-smoke load-smoke sweep-smoke obs-smoke bench-smoke bench-sweep

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

experiments:
	$(GO) run ./cmd/experiments

# serve-smoke boots rbcastd on an ephemeral port and exercises the serving
# contract end to end: healthz, an uncached and a cached run (byte-identical
# bodies), a batch round trip, metrics consistency, graceful shutdown.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# trace-smoke exercises the observability surface end to end: a CLI trace
# dump, the daemon's /v1/jobs/{id}/trace endpoint (byte-identical to the
# CLI's JSONL for the same scenario), trace-endpoint error contracts, and
# the per-route duration histograms in /metrics.
trace-smoke:
	GO="$(GO)" sh scripts/trace_smoke.sh

# load-smoke boots rbcastd with tiny limits (-queue-depth 1 -max-inflight 1
# -job-timeout 250ms) and drives it to saturation with cmd/loadgen: shed
# requests must get 429 + Retry-After (never hang), a retrying client must
# eventually succeed, and an over-deadline job must fail alone with a
# partial result while its siblings complete.
load-smoke:
	GO="$(GO)" sh scripts/load_smoke.sh

# obs-smoke boots rbcastd with the flight recorder armed and a 1ms
# slow-request threshold, then runs loadgen -progress: live, monotone
# progress events over /v1/jobs/{id}/events to a terminal state, a
# /debug/requests timeline whose child spans account for the request
# duration with a nonzero engine phase, and slow-request WARN lines
# carrying the per-phase breakdown.
obs-smoke:
	GO="$(GO)" sh scripts/obs_smoke.sh

# sweep-smoke boots rbcastd and exercises /v1/sweep against the scalar
# surface: a pre-run element must come back cached and byte-identical, a
# sweep-computed element must be a /v1/run cache hit under the same
# fingerprint, repeats are pure cache reads, oversized grids 400, and the
# sweep counters show on /metrics.
sweep-smoke:
	GO="$(GO)" sh scripts/sweep_smoke.sh

# cover runs the test suite with coverage and prints a per-package summary
# plus the total; the profile lands in cover.out for `go tool cover -html`.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# bench runs the full canonical scenario matrix and writes BENCH_3.json
# (see PERFORMANCE.md for the methodology and field meanings). It reports
# and gates nothing; TestAllocBaseline gates allocations on every push.
bench:
	$(GO) run ./cmd/bench -out BENCH_3.json

# bench-smoke runs every scenario once and checks its result fingerprint
# against testdata/results.golden — the fast correctness gate in `verify`.
bench-smoke:
	$(GO) run ./cmd/bench -smoke

# bench-sweep times rbcast.RunSweepJobs — the executor behind /v1/batch,
# /v1/sweep and every multi-job caller — against a scalar reference (one
# rbcast.Run per element over the same worker pool) on the canonical sweep
# workloads, checks every element hash for byte-identity, and fails below
# a 2x node-round (or wall) speedup. See PERFORMANCE.md for the current
# numbers.
bench-sweep:
	$(GO) run ./cmd/bench -sweep

# bench-serve runs the rbcastd serving benchmark (bench/, defined by
# BENCHMARK.json) over all five workloads at seed 1. It exits 1 on any
# wrong response body, so it doubles as an end-to-end correctness run of
# the serving path; its timings are reported, not gated. Set
# BENCH_SERVE_REPORT to a file path to also keep the full JSON report.
bench-serve:
	bash bench/run.sh --seed 1 $(if $(BENCH_SERVE_REPORT),--report "$(BENCH_SERVE_REPORT)")
