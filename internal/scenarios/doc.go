// Package scenarios defines the canonical benchmark and equivalence
// scenario matrix: one named (Config, FaultPlan) pair per representative
// workload, covering every protocol at, below and above its fault
// threshold, both engines, both delivery modes, and the medium extensions.
//
// The same matrix drives several consumers, which is the point — they
// must never drift apart:
//
//   - cmd/bench measures each scenario and emits BENCH_*.json;
//   - the root-package equivalence test pins each scenario's Result hash
//     against testdata/results.golden (generated from the pre-optimization
//     seed engines, so any hot-path change that alters a single byte of a
//     Result fails the suite);
//   - the root TestAllocBaseline holds each scenario's allocations per run
//     within 10% of testdata/bench_baseline.json, by scenario name;
//   - the root TestTraceFoldsIntoMetrics checks each scenario's traced
//     events against its per-round Metrics.
//
// SweepGrids are the canonical sweep grids, shared the same way by
// cmd/bench -sweep and the root TestSweepAllocs.
package scenarios
