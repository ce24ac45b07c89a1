// Package scenarios defines the canonical benchmark and equivalence
// scenario matrix: one named (Config, FaultPlan) pair per representative
// workload, covering every protocol at, below and above its fault
// threshold, both engines, both delivery modes, and the medium extensions.
//
// The same matrix drives several consumers, which is the point — they
// must never drift apart. All of them are root-package tests:
//
//   - TestScenarioResultsMatchGolden pins each scenario's Result hash
//     against testdata/results.golden (generated from the pre-optimization
//     seed engines, so any hot-path change that alters a single byte of a
//     Result fails the suite);
//   - TestAllocBaseline holds each scenario's allocations per run within
//     10% of testdata/bench_baseline.json, by scenario name;
//   - BenchmarkMatrix times each scenario, one sub-benchmark each;
//   - TestTraceFoldsIntoMetrics checks each scenario's traced events
//     against its per-round Metrics.
//
// -update regenerates both files under testdata. SweepGrids are the
// canonical sweep grids, shared the same way by the root
// TestSweepSharesOneResultPerSimulation (each element against its scalar
// run, and at least 2× fewer node-rounds) and TestSweepAllocs.
package scenarios
