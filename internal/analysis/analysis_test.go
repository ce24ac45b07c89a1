package analysis

import (
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/evidence"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/protocol"
	"repro/internal/topology"
)

func testNet(t *testing.T, w, h, r int) *topology.Network {
	t.Helper()
	net, err := topology.New(grid.Torus{W: w, H: h}, grid.Linf, r)
	if err != nil {
		t.Fatalf("topology.New: %v", err)
	}
	return net
}

func TestValidation(t *testing.T) {
	net := testNet(t, 10, 10, 1)
	if _, err := FloodReachable(nil, 0, nil); err == nil {
		t.Error("nil network must be rejected")
	}
	if _, err := FloodReachable(net, -1, nil); err == nil {
		t.Error("bad source must be rejected")
	}
	if _, err := FloodReachable(net, 0, []topology.NodeID{0}); err == nil {
		t.Error("faulty source must be rejected")
	}
	if _, err := FloodReachable(net, 0, []topology.NodeID{9999}); err == nil {
		t.Error("out-of-range fault must be rejected")
	}
	if _, err := CPAClosure(net, 0, nil, -1); err == nil {
		t.Error("negative t must be rejected")
	}
	if _, err := BV4Closure(net, nil, 0, nil, 1); err == nil {
		t.Error("nil family table must be rejected")
	}
	// A fault bound above protocol.MaxT is rejected as the protocols
	// reject it: at math.MaxInt64 the t+1 quorum wraps negative, and the
	// closures predicted that every node commits.
	ft, err := evidence.NewFamilyTable(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bound := range []int{protocol.MaxT + 1, math.MaxInt64} {
		if _, err := CPAClosure(net, 0, nil, bound); err == nil {
			t.Errorf("CPAClosure: t = %d must be rejected", bound)
		}
		if _, err := BV4Closure(net, ft, 0, nil, bound); err == nil {
			t.Errorf("BV4Closure: t = %d must be rejected", bound)
		}
	}
	// protocol.MaxT itself is a valid bound: no node but the source's
	// neighbors can gather 2³¹ votes.
	pred, err := CPAClosure(net, 0, nil, protocol.MaxT)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + net.Degree(); pred.Count != want {
		t.Errorf("CPAClosure at t = MaxT: %d commits, want the source and its %d neighbors", pred.Count, net.Degree())
	}
}

func TestFloodReachableFaultFree(t *testing.T) {
	net := testNet(t, 10, 10, 1)
	pred, err := FloodReachable(net, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Count != net.Size() {
		t.Errorf("reached %d of %d", pred.Count, net.Size())
	}
	if !pred.All(net, nil) {
		t.Error("All must hold fault-free")
	}
	// Hop radius of a 10x10 r=1 torus from a corner is 5.
	if pred.Rounds != 5 {
		t.Errorf("BFS depth %d, want 5", pred.Rounds)
	}
}

// TestFloodPredictionMatchesSimulation is the E24 differential check for
// the crash-stop model: static reachability equals the simulated outcome.
func TestFloodPredictionMatchesSimulation(t *testing.T) {
	net := testNet(t, 16, 10, 1)
	src := net.IDOf(grid.C(0, 0))
	for seed := int64(0); seed < 5; seed++ {
		crashed, err := fault.RandomBounded(net, 2, -1, seed)
		if err != nil {
			t.Fatal(err)
		}
		crashed = remove(crashed, src)
		pred, err := FloodReachable(net, src, crashed)
		if err != nil {
			t.Fatal(err)
		}
		out, err := protocol.Run(protocol.RunConfig{
			Kind:   protocol.Flood,
			Params: protocol.Params{Net: net, Source: src, Value: 1},
			Crash:  crashMap(crashed),
		})
		if err != nil {
			t.Fatal(err)
		}
		for id, d := range out.Result.Decisions {
			if pred.Committed[id] != d.Decided {
				t.Fatalf("seed %d node %d: predicted %v, simulated %v",
					seed, id, pred.Committed[id], d.Decided)
			}
		}
	}
}

// TestCPAPredictionMatchesSimulation: against silent adversaries the CPA
// closure equals the simulation exactly.
func TestCPAPredictionMatchesSimulation(t *testing.T) {
	net := testNet(t, 24, 14, 2)
	src := net.IDOf(grid.C(0, 0))
	tVal := bounds.MaxCPALinf(2)
	for seed := int64(0); seed < 4; seed++ {
		byz, err := fault.RandomBounded(net, tVal, -1, seed)
		if err != nil {
			t.Fatal(err)
		}
		byz = remove(byz, src)
		pred, err := CPAClosure(net, src, byz, tVal)
		if err != nil {
			t.Fatal(err)
		}
		out, err := protocol.Run(protocol.RunConfig{
			Kind:      protocol.CPA,
			Params:    protocol.Params{Net: net, Source: src, Value: 1, T: tVal},
			Byzantine: byzMap(byz),
		})
		if err != nil {
			t.Fatal(err)
		}
		for id, d := range out.Result.Decisions {
			if pred.Committed[id] != d.Decided {
				t.Fatalf("seed %d node %d: predicted %v, simulated %v",
					seed, id, pred.Committed[id], d.Decided)
			}
		}
	}
}

// TestBV4PredictionMatchesSimulation: the designated-evidence closure
// agrees with the simulated protocol against silent adversaries, at r = 1
// and r = 2, below the threshold and at Koo's bound, where the doubled
// Fig 13 checkerboard band must stall some honest node. At r = 1 the
// random placement at Koo's bound is the row whose commits need designated
// paths: direct hearing alone commits 23 of its 134 honest nodes.
func TestBV4PredictionMatchesSimulation(t *testing.T) {
	for _, tc := range []struct {
		r, w, h int
	}{
		{1, 16, 10},
		{2, 20, 14},
	} {
		r := tc.r
		net := testNet(t, tc.w, tc.h, r)
		src := net.IDOf(grid.C(0, 0))
		ft, err := evidence.NewFamilyTable(r)
		if err != nil {
			t.Fatal(err)
		}
		tMax, tImp := bounds.MaxByzantineLinf(r), bounds.MinImpossibleByzantineLinf(r)
		randomAt := func(tVal int) []topology.NodeID {
			ids, err := fault.RandomBounded(net, tVal, -1, 3)
			if err != nil {
				t.Fatal(err)
			}
			return remove(ids, src)
		}
		band, err := fault.TorusBands(net, func(x0 int) ([]topology.NodeID, error) {
			return fault.CheckerboardBand(net, x0, r)
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, scenario := range []struct {
			name  string
			byz   []topology.NodeID
			tVal  int
			stall bool
		}{
			{"random below threshold", randomAt(tMax), tMax, false},
			{"random at impossibility", randomAt(tImp), tImp, false},
			{"checkerboard at impossibility", band, tImp, true},
		} {
			byz := scenario.byz
			pred, err := BV4Closure(net, ft, src, byz, scenario.tVal)
			if err != nil {
				t.Fatal(err)
			}
			if stalled := !pred.All(net, byz); stalled != scenario.stall {
				t.Errorf("r=%d %s: %d of %d honest nodes predicted to commit, stall %v, want %v",
					r, scenario.name, pred.Count, net.Size()-len(byz), stalled, scenario.stall)
			}
			out, err := protocol.Run(protocol.RunConfig{
				Kind:      protocol.BV4,
				Params:    protocol.Params{Net: net, Source: src, Value: 1, T: scenario.tVal},
				Byzantine: byzMap(byz),
			})
			if err != nil {
				t.Fatal(err)
			}
			for id, d := range out.Result.Decisions {
				if pred.Committed[id] != d.Decided {
					t.Fatalf("r=%d %s node %v: predicted %v, simulated %v",
						r, scenario.name, net.CoordOf(topology.NodeID(id)), pred.Committed[id], d.Decided)
				}
			}
		}
	}
}

// TestClosuresAreMonotone: removing faults never shrinks the committed set.
func TestClosuresAreMonotone(t *testing.T) {
	net := testNet(t, 16, 10, 1)
	src := net.IDOf(grid.C(0, 0))
	byz, err := fault.RandomBounded(net, 2, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	byz = remove(byz, src)
	full, err := CPAClosure(net, src, byz, 1)
	if err != nil {
		t.Fatal(err)
	}
	fewer, err := CPAClosure(net, src, byz[:len(byz)/2], 1)
	if err != nil {
		t.Fatal(err)
	}
	for id := range full.Committed {
		if full.Committed[id] && !fewer.Committed[id] {
			t.Fatalf("node %d committed with more faults but not with fewer", id)
		}
	}
}

func remove(ids []topology.NodeID, drop topology.NodeID) []topology.NodeID {
	out := ids[:0]
	for _, id := range ids {
		if id != drop {
			out = append(out, id)
		}
	}
	return out
}

func byzMap(ids []topology.NodeID) map[topology.NodeID]fault.Strategy {
	m := make(map[topology.NodeID]fault.Strategy, len(ids))
	for _, id := range ids {
		m[id] = fault.Silent
	}
	return m
}

func crashMap(ids []topology.NodeID) map[topology.NodeID]int {
	m := make(map[topology.NodeID]int, len(ids))
	for _, id := range ids {
		m[id] = 0
	}
	return m
}
