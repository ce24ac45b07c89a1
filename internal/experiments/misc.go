package experiments

import (
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/paths"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/topology"
)

func init() {
	register("E18", runE18GraphCond)
	register("E19", runE19Safety)
	register("E20", runE20Engines)
}

// runE18GraphCond: §V — the general sufficient condition for arbitrary
// graphs rests on counting vertex-disjoint paths; verify the counter against
// graphs with known connectivity and derive the tolerable f = ⌊(κ−1)/2⌋.
func runE18GraphCond() (Report, error) {
	rep := Report{
		ID:         "E18",
		Title:      "§V — (2f+1)-connectivity condition on arbitrary graphs",
		PaperClaim: "without duplicity, reliable broadcast needs 2f+1 vertex-disjoint paths (Dolev's condition relaxed from 3f+1 nodes)",
		Header:     []string{"graph", "κ (disjoint paths)", "expected", "tolerable f"},
		Pass:       true,
	}
	cases := []struct {
		name     string
		n        int
		expected int
		nb       func(int) []int
	}{
		{
			name: "K8", n: 8, expected: 7,
			nb: func(v int) []int {
				var out []int
				for u := 0; u < 8; u++ {
					if u != v {
						out = append(out, u)
					}
				}
				return out
			},
		},
		{
			name: "C12 (ring)", n: 12, expected: 2,
			nb: func(v int) []int { return []int{(v + 1) % 12, (v + 11) % 12} },
		},
		{
			name: "C12² (chordal ring)", n: 12, expected: 4,
			nb: func(v int) []int {
				return []int{(v + 1) % 12, (v + 11) % 12, (v + 2) % 12, (v + 10) % 12}
			},
		},
	}
	for _, tc := range cases {
		// Vertex connectivity between antipodal-ish endpoints.
		count, err := flow.CountVertexDisjointPaths(flow.DisjointConfig{
			N: tc.n, Neighbors: tc.nb, S: 0, T: tc.n / 2,
		})
		if err != nil {
			return rep, err
		}
		if count != tc.expected {
			rep.Pass = false
		}
		rep.Rows = append(rep.Rows, []string{
			tc.name, itoa(count), itoa(tc.expected), itoa((count - 1) / 2),
		})
	}
	// The grid radio network itself: the worst-case pair of Theorem 1's
	// proof — the U-region node N = (a+p, b+q) and the fringe corner
	// P = (a−r, b+r+1) — has at least r(2r+1) vertex-disjoint paths inside
	// the single neighborhood nbd(a, b+r+1).
	r := 2
	c := grid.C(0, 0)
	nCoord := grid.C(c.X+1, c.Y+2) // U node with p=1, q=2
	pCoord := paths.CornerP(c, r)
	nbd := grid.ClosedNbd(grid.Linf, paths.NbdCenterU(c, r), r)
	index := make(map[grid.Coord]int, len(nbd))
	for i, z := range nbd {
		index[z] = i
	}
	nbFn := func(i int) []int {
		var out []int
		for j := range nbd {
			if i != j && grid.DistLinf(nbd[i], nbd[j]) <= r {
				out = append(out, j)
			}
		}
		return out
	}
	count, err := flow.CountVertexDisjointPaths(flow.DisjointConfig{
		N: len(nbd), Neighbors: nbFn, S: index[nCoord], T: index[pCoord],
	})
	if err != nil {
		return rep, err
	}
	want := r * (2*r + 1)
	if count < want {
		rep.Pass = false
	}
	rep.Rows = append(rep.Rows, []string{
		fmt.Sprintf("L∞ nbd r=%d (Thm 1 worst pair)", r), itoa(count),
		fmt.Sprintf("≥ %d", want), itoa((count - 1) / 2),
	})
	return rep, nil
}

// runE19Safety: Theorem 2 — no honest node ever commits a wrong value, for
// every protocol, adversary strategy and seed, including fault bounds above
// the liveness threshold.
func runE19Safety() (Report, error) {
	rep := Report{
		ID:         "E19",
		Title:      "Theorem 2 — safety sweep (no wrong commits, ever)",
		PaperClaim: "no node commits a wrong value by following the rule, at any t within the placement budget",
		Header:     []string{"protocol", "r", "t", "strategy", "runs", "wrong commits"},
		Pass:       true,
	}
	for _, tc := range []struct {
		kind protocol.Kind
		r    int
		t    int
	}{
		{protocol.BV4, 1, 1},
		{protocol.BV4, 1, 2},
		{protocol.BV2, 1, 1},
		{protocol.BV2, 1, 3},
		{protocol.CPA, 2, 2},
		{protocol.CPA, 2, 5},
	} {
		net, err := buildNet(14, 14, tc.r, grid.Linf)
		if err != nil {
			return rep, err
		}
		src := net.IDOf(grid.C(0, 0))
		for _, strat := range []fault.Strategy{fault.Liar, fault.Forger} {
			wrong := 0
			const runs = 3
			for seed := int64(0); seed < runs; seed++ {
				byz, err := fault.RandomBounded(net, tc.t, -1, seed)
				if err != nil {
					return rep, err
				}
				byz = removeID(byz, src)
				out, err := protocol.Run(protocol.RunConfig{
					Kind:      tc.kind,
					Params:    protocol.Params{Net: net, Source: src, Value: 1, T: tc.t},
					Byzantine: byzMap(byz, strat),
				})
				if err != nil {
					return rep, err
				}
				wrong += out.Wrong
			}
			if wrong != 0 {
				rep.Pass = false
			}
			rep.Rows = append(rep.Rows, []string{
				tc.kind.String(), itoa(tc.r), itoa(tc.t), strat.String(),
				itoa(3), itoa(wrong),
			})
		}
	}
	return rep, nil
}

// runE20Engines: the concurrent runtime, whose workers process each round's
// deliveries in parallel, must agree with the deterministic engine in
// lock-step mode, decision for decision. One factory builds the processes
// of both engines, as the factory contract allows.
func runE20Engines() (Report, error) {
	rep := Report{
		ID:         "E20",
		Title:      "Engine equivalence — concurrent runtime vs deterministic engine",
		PaperClaim: "(infrastructure check) both executions of the same protocol agree exactly",
		Header:     []string{"protocol", "r", "decisions equal", "rounds equal", "stats equal"},
		Pass:       true,
	}
	for _, tc := range []struct {
		kind protocol.Kind
		r    int
	}{
		{protocol.Flood, 1},
		{protocol.CPA, 2},
		{protocol.BV2, 1},
	} {
		net, err := buildNet(12, 12, tc.r, grid.Linf)
		if err != nil {
			return rep, err
		}
		src := net.IDOf(grid.C(0, 0))
		factory, err := protocol.NewFactory(tc.kind, protocol.Params{
			Net: net, Source: src, Value: 1, T: 1,
		})
		if err != nil {
			return rep, err
		}
		crash := map[topology.NodeID]int{17: 2, 40: 0}
		seq, err := sim.Run(sim.Config{
			Net: net, Mode: sim.ModeNextRound, Factory: factory, CrashAt: crash,
		})
		if err != nil {
			return rep, err
		}
		conc, err := runtime.Run(runtime.Config{
			Net: net, Factory: factory, CrashAt: crash,
		})
		if err != nil {
			return rep, err
		}
		decEq := slices.EqualFunc(seq.Decisions, conc.Decisions, func(a, b sim.Decision) bool {
			return a.Decided == b.Decided && a.Value == b.Value
		})
		roundsEq := slices.EqualFunc(seq.Decisions, conc.Decisions, func(a, b sim.Decision) bool {
			return a.Round == b.Round
		})
		statsEq := seq.Stats == conc.Stats
		if !decEq || !roundsEq || !statsEq {
			rep.Pass = false
		}
		rep.Rows = append(rep.Rows, []string{
			tc.kind.String(), itoa(tc.r),
			fmt.Sprintf("%v", decEq), fmt.Sprintf("%v", roundsEq), fmt.Sprintf("%v", statsEq),
		})
	}
	return rep, nil
}
