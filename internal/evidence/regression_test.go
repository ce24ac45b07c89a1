package evidence

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/topology"
)

// TestCommitSingleLevelRoleMixingRegression replays the evidence store of a
// once-observed wrong commit under forger adversaries. A flow-based packing
// fabricated a third "chain" by combining node (13,2)'s origin role in one
// recorded chain with its relay role in another; the exact whole-chain set
// packing must report a maximum of 2 and refuse need=3.
func TestCommitSingleLevelRoleMixingRegression(t *testing.T) {
	net, err := topology.New(grid.Torus{W: 14, H: 14}, grid.Linf, 1)
	if err != nil {
		t.Fatal(err)
	}
	id := func(x, y int) topology.NodeID { return net.IDOf(grid.C(x, y)) }
	recv := id(12, 3)
	s := NewStore()
	s.Add(id(0, 1), 0, []topology.NodeID{id(13, 2)})
	s.Add(id(13, 1), 0, []topology.NodeID{id(12, 2)})
	s.AddDirect(id(13, 2), 0)
	s.Add(id(13, 2), 0, []topology.NodeID{id(13, 3)})
	s.Add(id(0, 3), 0, []topology.NodeID{id(13, 4)})
	s.Add(id(13, 3), 0, []topology.NodeID{id(13, 4)})
	s.AddDirect(id(13, 4), 0)
	if CommitSingleLevel(net, s, recv, 0, 3) {
		t.Error("need=3 must not be satisfiable (max disjoint packing is 2)")
	}
	if !CommitSingleLevel(net, s, recv, 0, 2) {
		t.Error("need=2 should be satisfiable")
	}
}
