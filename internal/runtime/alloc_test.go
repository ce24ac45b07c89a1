package runtime

import (
	"testing"

	"repro/internal/grid"
)

// TestRunAllocsRegression guards the concurrent engine's allocation budget
// on a 1024-node flood. The rounds themselves allocate nothing in steady
// state: the workers start once per run, and the flat inbox, the pending
// list and every outbox keep their capacity across rounds. What remains is
// per node, once per run — this test's factory allocates each process, and
// each outbox grows on its node's first broadcast — plus about 50 for
// setup, 2,095 in all with Go 1.24. The engine that launched a goroutine
// per receiving node per round measured ~11.2k here; the 2,300 budget
// trips on any per-round or per-delivery allocation returning.
func TestRunAllocsRegression(t *testing.T) {
	net := testNet(t, 32, 32, 2)
	src := net.IDOf(grid.C(0, 0))
	cfg := Config{Net: net, Factory: floodFactory(src, 1)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds < 5 {
		t.Fatalf("probe workload degenerate: %d rounds", res.Stats.Rounds)
	}
	const maxAllocs = 2_300
	avg := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > maxAllocs {
		t.Errorf("full run allocated %.0f times (%.1f/round over %d rounds), budget %d — the round hot path regressed",
			avg, avg/float64(res.Stats.Rounds), res.Stats.Rounds, maxAllocs)
	}
}
