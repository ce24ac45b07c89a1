package rbcast_test

import (
	"reflect"
	"testing"

	rbcast "repro"
	"repro/internal/scenarios"
)

// TestSweepSharesOneResultPerSimulation pins the executor's sharing
// promise on the canonical sweep grids: every simulation yields one Result
// value, which all the elements it serves share (they share its Decisions
// map), and PackBatch packs each such value once. Every element still
// hashes equal to its own scalar Run, and the sweep simulates at most half
// the node-rounds the scalar runs would (25× and 12.8× fewer today; the
// count is deterministic).
func TestSweepSharesOneResultPerSimulation(t *testing.T) {
	for _, g := range scenarios.SweepGrids() {
		jobs, err := g.Spec.Elements()
		if err != nil {
			t.Fatal(err)
		}
		results, stats := rbcast.RunSweepJobs(jobs, rbcast.BatchOptions{Workers: 2})
		values := make(map[uintptr]bool)
		for i, br := range results {
			if br.Err != nil {
				t.Fatalf("%s[%d]: %v", g.Name, i, br.Err)
			}
			values[reflect.ValueOf(br.Result.Decisions).Pointer()] = true
			want, err := rbcast.Run(jobs[i].Config, jobs[i].Plan)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := mustHash(t, br.Result), mustHash(t, want); got != want {
				t.Errorf("%s[%d]: sweep result %.12s, scalar %.12s", g.Name, i, got, want)
			}
		}
		packs := make(map[*rbcast.PackedResult]bool)
		for _, p := range rbcast.PackBatch(results) {
			packs[p] = true
		}
		if len(values) != stats.Simulations || len(packs) != stats.Simulations {
			t.Errorf("%s: %d Result values and %d packs for %d simulations", g.Name, len(values), len(packs), stats.Simulations)
		}
		if ratio := float64(stats.ScalarNodeRounds) / float64(max(stats.NodeRounds, 1)); ratio < 2 {
			t.Errorf("%s: %d node-rounds against %d for scalar runs (%.2f×), want at least 2×", g.Name, stats.NodeRounds, stats.ScalarNodeRounds, ratio)
		}
	}
}

func mustHash(t *testing.T, res rbcast.Result) string {
	t.Helper()
	h, err := scenarios.ResultHash(res)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// sweepAllocs is the measured allocation count of one RunSweepJobs call
// per canonical sweep grid, on two workers; TestSweepAllocs allows 10%
// over it. A Result and a prepared scenario per fork-family group, or a
// fork cloning one process at a time, costs thousands more: the calls
// allocated 4,650 and 7,095 times that way.
var sweepAllocs = map[string]float64{
	"flood/40x30": 1545,
	"cpa/32x24":   1106,
}

// TestSweepAllocs gates the sweep executor's allocations, which are
// deterministic for a given Go version.
func TestSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, g := range scenarios.SweepGrids() {
		jobs, err := g.Spec.Elements()
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(3, func() {
			rbcast.RunSweepJobs(jobs, rbcast.BatchOptions{Workers: 2})
		})
		budget := 1.1 * sweepAllocs[g.Name]
		t.Logf("%s: %.0f allocations per sweep, budget %.0f", g.Name, got, budget)
		if got > budget {
			t.Errorf("%s: %.0f allocations per sweep, over the budget of %.0f", g.Name, got, budget)
		}
	}
}
