package rbcast_test

import (
	"runtime"
	"testing"

	rbcast "repro"
	"repro/internal/scenarios"
)

// TestEvidenceProtocolAllocs guards the allocation budget of the evidence
// protocols' per-process state: one full rbcast.Run of a BV4, a BV2 and an
// authenticated Bracha scenario. With map-backed dedup sets, string dedup
// keys and per-evaluation packing buffers these runs allocated 33,824,
// 33,650 and 15,952 times. Stores whose chain lists and relays filled
// slabs, and tables that doubled from empty in every process, brought
// that to about 6,460, 6,410 and 306. Stores that keep each chain once and
// pointer-free, tables sized once from the neighborhood, processes from
// slabs and pooled packing scratch allocate about 3,510, 2,440 and 276.
// Under the race detector sync.Pool drops a quarter of the packers put
// back, so BV2 regrows its scratch and reads 4,180–4,400. The BV budgets
// sit between those counts and the doubling tables' 6,400, so they trip
// on a return to growth from empty in either mode without flaking on
// incidental runtime changes.
func TestEvidenceProtocolAllocs(t *testing.T) {
	budgets := map[string]float64{
		"bv4/at/16x10r1":      4500,
		"bv2/at/16x10r1":      5000,
		"bracha-auth/rgg/n32": 600,
	}
	for _, sc := range scenarios.Matrix() {
		budget, ok := budgets[sc.Name]
		if !ok {
			continue
		}
		delete(budgets, sc.Name)
		avg := testing.AllocsPerRun(5, func() {
			if _, err := rbcast.Run(sc.Config, sc.Plan); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per run, budget %.0f", sc.Name, avg, budget)
		if avg > budget {
			t.Errorf("%s: full run allocated %.0f times, budget %.0f — the evidence state regressed", sc.Name, avg, budget)
		}
	}
	for name := range budgets {
		t.Errorf("scenario %s is not in the matrix", name)
	}
}

// TestEvidenceProtocolMemoryIsLocal runs BV4 and BV2 on a 24×24 and a
// 72×72 torus and requires the bytes allocated per node to stay flat. Each
// process's state must follow the evidence it hears, which is local; when
// it was sized to the network, the 72×72 runs allocated about four times
// as much per node as the 24×24 ones.
func TestEvidenceProtocolMemoryIsLocal(t *testing.T) {
	// The fewer bytes of two runs: an allocation elsewhere in the process
	// landing inside one run's window must not fail the test.
	perNode := func(p rbcast.Protocol, side int) float64 {
		cfg := rbcast.Config{Width: side, Height: side, Radius: 1, Protocol: p, Value: 1}
		least := ^uint64(0)
		for try := 0; try < 2; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := rbcast.Run(cfg, rbcast.FaultPlan{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return float64(least) / float64(side*side)
	}
	for _, p := range []rbcast.Protocol{rbcast.ProtocolBV4, rbcast.ProtocolBV2} {
		small, large := perNode(p, 24), perNode(p, 72)
		t.Logf("%s: %.0f bytes per node at 24×24, %.0f at 72×72", p, small, large)
		if large > 1.25*small {
			t.Errorf("%s: %.0f bytes per node at 72×72 against %.0f at 24×24 — per-process state grows with the network", p, large, small)
		}
	}
}
