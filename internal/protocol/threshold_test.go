package protocol

import (
	"slices"
	"testing"

	"repro/internal/bounds"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/topology"
)

// doubleBand returns two fault bands that jointly enclose the middle of the
// torus. The paper's half-plane constructions (Figs 8 and 13) cut an
// infinite grid with one band; on a torus two bands are needed because the
// "far side" wraps around.
func doubleBand(t *testing.T, net *topology.Network, width int, checker bool) []topology.NodeID {
	t.Helper()
	w := net.Torus().W
	x1 := w / 4
	x2 := 3 * w / 4
	var out []topology.NodeID
	for _, x0 := range []int{x1, x2} {
		if checker {
			band, err := fault.CheckerboardBand(net, x0, width)
			if err != nil {
				t.Fatalf("CheckerboardBand: %v", err)
			}
			out = append(out, band...)
		} else {
			out = append(out, fault.Band(net, x0, width)...)
		}
	}
	return out
}

// middleNodes returns honest nodes strictly between the two bands, at least
// one column away from each.
func middleNodes(net *topology.Network, width int, faulty map[topology.NodeID]bool) []topology.NodeID {
	w := net.Torus().W
	lo := w/4 + width // first column right of band 1
	hi := 3*w/4 - 1   // last column left of band 2
	var out []topology.NodeID
	net.ForEach(func(id topology.NodeID) {
		c := net.CoordOf(id)
		if c.X > lo && c.X < hi && !faulty[id] {
			out = append(out, id)
		}
	})
	return out
}

func byzMap(ids []topology.NodeID, s fault.Strategy) map[topology.NodeID]fault.Strategy {
	m := make(map[topology.NodeID]fault.Strategy, len(ids))
	for _, id := range ids {
		m[id] = s
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

// TestTheorem4CrashImpossibilityConstruction reproduces Fig 8: crashing a
// width-r band (doubled for the torus) puts exactly r(2r+1) faults in the
// worst neighborhood and partitions the middle nodes from the source.
func TestTheorem4CrashImpossibilityConstruction(t *testing.T) {
	for _, r := range []int{1, 2} {
		net := testNet(t, 16*r, 8*r+2, r)
		band := doubleBand(t, net, r, false)
		if got, want := fault.MaxPerNeighborhood(net, band), bounds.MinImpossibleCrashLinf(r); got != want {
			t.Fatalf("r=%d: construction has %d faults per nbd, want %d", r, got, want)
		}
		src := net.IDOf(grid.C(0, 0))
		out, err := Run(RunConfig{
			Kind:   Flood,
			Params: Params{Net: net, Source: src, Value: 1},
			Crash:  crashMap(band),
		})
		if err != nil {
			t.Fatal(err)
		}
		faulty := make(map[topology.NodeID]bool, len(band))
		for _, id := range band {
			faulty[id] = true
		}
		mid := middleNodes(net, r, faulty)
		if len(mid) == 0 {
			t.Fatal("no middle nodes — bad test geometry")
		}
		for _, id := range mid {
			if out.Result.Decisions[id].Decided {
				t.Fatalf("r=%d: middle node %v decided despite the partition", r, net.CoordOf(id))
			}
		}
		if out.Undecided < len(mid) {
			t.Errorf("r=%d: undecided %d < middle population %d", r, out.Undecided, len(mid))
		}
		// Everything outside the cut region must still decide.
		if out.Correct == 0 || out.Wrong != 0 {
			t.Errorf("r=%d: correct=%d wrong=%d", r, out.Correct, out.Wrong)
		}
	}
}

// TestTheorem5CrashAchievability verifies flooding tolerates t = r(2r+1)−1:
// the greedy band adversary (the strongest legal band) cannot stop delivery.
func TestTheorem5CrashAchievability(t *testing.T) {
	for _, r := range []int{1, 2} {
		net := testNet(t, 16*r, 8*r+2, r)
		tMax := bounds.MaxCrashLinf(r)
		var crash []topology.NodeID
		for _, x0 := range []int{net.Torus().W / 4, 3 * net.Torus().W / 4} {
			band, err := fault.GreedyBand(net, x0, r, tMax)
			if err != nil {
				t.Fatal(err)
			}
			crash = append(crash, band...)
		}
		if got := fault.MaxPerNeighborhood(net, crash); got > tMax {
			t.Fatalf("r=%d: placement exceeds budget: %d > %d", r, got, tMax)
		}
		src := net.IDOf(grid.C(0, 0))
		out, err := Run(RunConfig{
			Kind:   Flood,
			Params: Params{Net: net, Source: src, Value: 1},
			Crash:  crashMap(crash),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllCorrect() {
			t.Errorf("r=%d: flood at t=%d: correct=%d wrong=%d undecided=%d",
				r, tMax, out.Correct, out.Wrong, out.Undecided)
		}
	}
}

// TestTheorem1ByzantineAchievability runs BV4 at the exact threshold
// t = ⌈r(2r+1)/2⌉ − 1 against the strongest band and random adversaries.
func TestTheorem1ByzantineAchievability(t *testing.T) {
	for _, tc := range []struct {
		r, w, h int
		mode    EvidenceMode
	}{
		{1, 16, 10, Designated},
		{1, 16, 10, Exact},
		{2, 32, 18, Designated},
	} {
		net := testNet(t, tc.w, tc.h, tc.r)
		tMax := bounds.MaxByzantineLinf(tc.r)
		var byz []topology.NodeID
		for _, x0 := range []int{tc.w / 4, 3 * tc.w / 4} {
			band, err := fault.GreedyBand(net, x0, tc.r, tMax)
			if err != nil {
				t.Fatal(err)
			}
			byz = append(byz, band...)
		}
		if got := fault.MaxPerNeighborhood(net, byz); got > tMax {
			t.Fatalf("r=%d: budget exceeded", tc.r)
		}
		src := net.IDOf(grid.C(0, 0))
		for _, strat := range []fault.Strategy{fault.Silent, fault.Forger} {
			out, err := Run(RunConfig{
				Kind:      BV4,
				Params:    Params{Net: net, Source: src, Value: 1, T: tMax, Mode: tc.mode},
				Byzantine: byzMap(byz, strat),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !out.AllCorrect() {
				t.Errorf("r=%d mode=%v strat=%v t=%d: correct=%d wrong=%d undecided=%d",
					tc.r, tc.mode, strat, tMax, out.Correct, out.Wrong, out.Undecided)
			}
		}
	}
}

// TestKooImpossibilityStallsBV4 reproduces the Fig 13 situation at
// t = ⌈r(2r+1)/2⌉: the checkerboard band (silent variant) stalls every node
// between the bands while safety is preserved.
func TestKooImpossibilityStallsBV4(t *testing.T) {
	r := 1
	net := testNet(t, 16, 10, r)
	tImp := bounds.MinImpossibleByzantineLinf(r)
	byz := doubleBand(t, net, r, true)
	if got := fault.MaxPerNeighborhood(net, byz); got != tImp {
		t.Fatalf("construction has %d faults per nbd, want %d", got, tImp)
	}
	src := net.IDOf(grid.C(0, 0))
	out, err := Run(RunConfig{
		Kind:      BV4,
		Params:    Params{Net: net, Source: src, Value: 1, T: tImp, Mode: Designated},
		Byzantine: byzMap(byz, fault.Silent),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Safe() {
		t.Fatal("safety violated")
	}
	faulty := make(map[topology.NodeID]bool, len(byz))
	for _, id := range byz {
		faulty[id] = true
	}
	mid := middleNodes(net, r, faulty)
	if len(mid) == 0 {
		t.Fatal("no middle nodes")
	}
	for _, id := range mid {
		if out.Result.Decisions[id].Decided {
			t.Errorf("middle node %v decided at the impossibility bound", net.CoordOf(id))
		}
	}
}

// TestBV2Achievability runs the two-hop protocol at the exact threshold.
func TestBV2Achievability(t *testing.T) {
	for _, tc := range []struct{ r, w, h int }{
		{1, 16, 10},
		{2, 32, 18},
	} {
		net := testNet(t, tc.w, tc.h, tc.r)
		tMax := bounds.MaxByzantineLinf(tc.r)
		var byz []topology.NodeID
		for _, x0 := range []int{tc.w / 4, 3 * tc.w / 4} {
			band, err := fault.GreedyBand(net, x0, tc.r, tMax)
			if err != nil {
				t.Fatal(err)
			}
			byz = append(byz, band...)
		}
		src := net.IDOf(grid.C(0, 0))
		out, err := Run(RunConfig{
			Kind:      BV2,
			Params:    Params{Net: net, Source: src, Value: 1, T: tMax},
			Byzantine: byzMap(byz, fault.Silent),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllCorrect() {
			t.Errorf("r=%d BV2 t=%d: correct=%d wrong=%d undecided=%d",
				tc.r, tMax, out.Correct, out.Wrong, out.Undecided)
		}
	}
}

// TestTheorem6CPAAchievability runs the simple protocol at t = ⌊2r²/3⌋.
func TestTheorem6CPAAchievability(t *testing.T) {
	for _, tc := range []struct{ r, w, h int }{
		{2, 24, 14},
		{3, 32, 20},
	} {
		net := testNet(t, tc.w, tc.h, tc.r)
		tCPA := bounds.MaxCPALinf(tc.r)
		var byz []topology.NodeID
		for _, x0 := range []int{tc.w / 4, 3 * tc.w / 4} {
			band, err := fault.GreedyBand(net, x0, tc.r, tCPA)
			if err != nil {
				t.Fatal(err)
			}
			byz = append(byz, band...)
		}
		if got := fault.MaxPerNeighborhood(net, byz); got > tCPA {
			t.Fatalf("r=%d: budget exceeded", tc.r)
		}
		src := net.IDOf(grid.C(0, 0))
		for _, strat := range []fault.Strategy{fault.Silent, fault.Liar} {
			out, err := Run(RunConfig{
				Kind:      CPA,
				Params:    Params{Net: net, Source: src, Value: 1, T: tCPA},
				Byzantine: byzMap(byz, strat),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !out.AllCorrect() {
				t.Errorf("r=%d strat=%v t=%d: correct=%d wrong=%d undecided=%d",
					tc.r, strat, tCPA, out.Correct, out.Wrong, out.Undecided)
			}
		}
	}
}

// TestSafetyUnderForgers is the Theorem 2 sweep (E19): across protocols,
// radii and adversary strategies within the budget, no honest node ever
// commits to a wrong value — even when liveness is lost.
func TestSafetyUnderForgers(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		r    int
		tVal int
	}{
		{BV4, 1, 1},
		{BV4, 1, 2}, // above the liveness threshold: may stall, must stay safe
		{BV2, 1, 1},
		{BV2, 1, 2},
		{CPA, 2, 2},
	} {
		net := testNet(t, 14, 14, tc.r)
		src := net.IDOf(grid.C(0, 0))
		for seed := int64(0); seed < 3; seed++ {
			byz, err := fault.RandomBounded(net, tc.tVal, -1, seed)
			if err != nil {
				t.Fatal(err)
			}
			// The source must stay honest.
			filtered := byz[:0]
			for _, id := range byz {
				if id != src {
					filtered = append(filtered, id)
				}
			}
			for _, strat := range []fault.Strategy{fault.Liar, fault.Forger} {
				out, err := Run(RunConfig{
					Kind:      tc.kind,
					Params:    Params{Net: net, Source: src, Value: 1, T: tc.tVal},
					Byzantine: byzMap(filtered, strat),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !out.Safe() {
					t.Errorf("%v r=%d t=%d seed=%d strat=%v: %d wrong commits",
						tc.kind, tc.r, tc.tVal, seed, strat, out.Wrong)
				}
			}
		}
	}
}

// TestBV4ModesAgree verifies the designated (earmarked) and exact evidence
// engines produce identical decisions — the state reduction must not change
// the protocol's outcome, only its cost.
func TestBV4ModesAgree(t *testing.T) {
	net := testNet(t, 12, 12, 1)
	src := net.IDOf(grid.C(0, 0))
	for seed := int64(0); seed < 3; seed++ {
		byz, err := fault.RandomBounded(net, 1, -1, seed)
		if err != nil {
			t.Fatal(err)
		}
		filtered := byz[:0]
		for _, id := range byz {
			if id != src {
				filtered = append(filtered, id)
			}
		}
		run := func(mode EvidenceMode) Outcome {
			out, err := Run(RunConfig{
				Kind:      BV4,
				Params:    Params{Net: net, Source: src, Value: 1, T: 1, Mode: mode},
				Byzantine: byzMap(filtered, fault.Forger),
			})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		des := run(Designated)
		exa := run(Exact)
		if des.Correct != exa.Correct || des.Wrong != exa.Wrong || des.Undecided != exa.Undecided {
			t.Errorf("seed %d: designated %+v vs exact %+v", seed,
				[3]int{des.Correct, des.Wrong, des.Undecided},
				[3]int{exa.Correct, exa.Wrong, exa.Undecided})
		}
		for id, d := range des.Result.Decisions {
			if e := exa.Result.Decisions[id]; e.Decided != d.Decided || e.Value != d.Value {
				t.Errorf("seed %d node %d: designated %+v, exact %+v", seed, id, d, e)
			}
		}
	}
}

// TestBV4ConcurrentEngine runs the designated protocol on the concurrent
// runtime: the shared family table must be safe under the workers'
// concurrent reads and decisions must match the sequential engine.
func TestBV4ConcurrentEngine(t *testing.T) {
	net := testNet(t, 12, 12, 1)
	src := net.IDOf(grid.C(0, 0))
	byz, err := fault.RandomBounded(net, 1, -1, 2)
	if err != nil {
		t.Fatal(err)
	}
	filtered := byz[:0]
	for _, id := range byz {
		if id != src {
			filtered = append(filtered, id)
		}
	}
	honest, err := NewFactory(BV4, Params{Net: net, Source: src, Value: 1, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	factory := func(id topology.NodeID) sim.Process {
		if _, ok := byzSet(filtered)[id]; ok {
			return fault.Silent.NewProcess(id)
		}
		return honest(id)
	}
	seq, err := sim.Run(sim.Config{Net: net, Mode: sim.ModeNextRound, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	conc, err := runtime.Run(runtime.Config{Net: net, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seq.Decisions, conc.Decisions) {
		t.Errorf("decisions differ:\nseq  %v\nconc %v", seq.Decisions, conc.Decisions)
	}
}

// byzSet converts a slice to a set for factory lookups.
func byzSet(ids []topology.NodeID) map[topology.NodeID]struct{} {
	m := make(map[topology.NodeID]struct{}, len(ids))
	for _, id := range ids {
		m[id] = struct{}{}
	}
	return m
}
