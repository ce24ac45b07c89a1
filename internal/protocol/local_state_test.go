package protocol

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// allocatedBytes returns the bytes the heap has handed out so far.
func allocatedBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestProcessConstructionIsLocal pins that building a BV4, BV2 or plain
// Bracha process allocates the same few bytes on a 12×12 torus as on a
// 192×192 one. A process's state must grow with the evidence it hears,
// never with the network: state sized to N per process makes a run's
// memory grow with N², and a 140×140 BV4 run once asked for 4.7 GB before
// its first round. Authenticated Bracha is left out on purpose: signed
// flooding brings all N signers' endorsements to every process, so its
// tallies are one bit per network node.
func TestProcessConstructionIsLocal(t *testing.T) {
	const procs = 64
	kinds := []struct {
		name string
		kind Kind
		mode EvidenceMode
	}{
		{"bv4", BV4, Designated},
		{"bv4-exact", BV4, Exact},
		{"bv2", BV2, 0},
		{"bracha", Bracha, 0},
	}
	perProcess := func(kind Kind, mode EvidenceMode, side int) uint64 {
		net := testNet(t, side, side, 1)
		factory, err := NewFactory(kind, Params{Net: net, Source: 0, Value: 1, T: 1, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		// The fewest bytes over three tries: a runtime allocation landing
		// inside one window must not fail the test.
		least := ^uint64(0)
		for try := 0; try < 3; try++ {
			keep := make([]sim.Process, procs)
			before := allocatedBytes()
			for i := range keep {
				keep[i] = factory(topology.NodeID(i))
			}
			least = min(least, allocatedBytes()-before)
			runtime.KeepAlive(keep)
		}
		return least / procs
	}
	for _, k := range kinds {
		small, large := perProcess(k.kind, k.mode, 12), perProcess(k.kind, k.mode, 192)
		t.Logf("%s: %d bytes per process at 12×12, %d at 192×192", k.name, small, large)
		if large > small+64 {
			t.Errorf("%s: a process costs %d bytes at 192×192 but %d at 12×12 — its state grows with the network", k.name, large, small)
		}
	}
}
