package experiments

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/protocol"
	"repro/internal/topology"
)

func init() {
	register("E08", runE08Thm1Sim)
	register("E09", runE09Thm1Impossible)
	register("E10", runE10CrashImpossible)
	register("E11", runE11CrashPossible)
	register("E12", runE12CPA)
	register("E13", runE13TwoHop)
	register("E17", runE17Percolation)
}

// buildNet constructs the standard experiment torus for radius r.
func buildNet(w, h, r int, m grid.Metric) (*topology.Network, error) {
	return topology.New(grid.Torus{W: w, H: h}, m, r)
}

// middleOf returns honest nodes strictly between the two torus bands.
func middleOf(net *topology.Network, width int, faulty []topology.NodeID) []topology.NodeID {
	isF := make(map[topology.NodeID]bool, len(faulty))
	for _, id := range faulty {
		isF[id] = true
	}
	w := net.Torus().W
	lo := w/4 + width
	hi := 3*w/4 - 1
	var out []topology.NodeID
	net.ForEach(func(id topology.NodeID) {
		c := net.CoordOf(id)
		if c.X > lo && c.X < hi && !isF[id] {
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

// runE08Thm1Sim: BV4 at the exact threshold t = ⌈r(2r+1)/2⌉−1 against the
// strongest legal band adversary and random placements.
func runE08Thm1Sim() (Report, error) {
	rep := Report{
		ID:         "E08",
		Title:      "Theorem 1 — BV4 achieves broadcast at t = ⌈r(2r+1)/2⌉−1",
		PaperClaim: "all honest nodes commit correctly for t < r(2r+1)/2 (L∞)",
		Header:     []string{"r", "t", "adversary", "faults", "correct", "wrong", "undecided", "rounds"},
		Pass:       true,
	}
	for _, tc := range []struct{ r, w, h int }{{1, 16, 10}, {2, 32, 18}} {
		net, err := buildNet(tc.w, tc.h, tc.r, grid.Linf)
		if err != nil {
			return rep, err
		}
		tMax := bounds.MaxByzantineLinf(tc.r)
		band, err := fault.TorusBands(net, func(x0 int) ([]topology.NodeID, error) {
			return fault.GreedyBand(net, x0, tc.r, tMax)
		})
		if err != nil {
			return rep, err
		}
		random, err := fault.RandomBounded(net, tMax, -1, 7)
		if err != nil {
			return rep, err
		}
		src := net.IDOf(grid.C(0, 0))
		random = removeID(random, src)
		for _, adv := range []struct {
			name  string
			nodes []topology.NodeID
			strat fault.Strategy
		}{
			{"band/silent", band, fault.Silent},
			{"band/forger", band, fault.Forger},
			{"random/forger", random, fault.Forger},
		} {
			out, err := protocol.Run(protocol.RunConfig{
				Kind:      protocol.BV4,
				Params:    protocol.Params{Net: net, Source: src, Value: 1, T: tMax},
				Byzantine: byzMap(adv.nodes, adv.strat),
			})
			if err != nil {
				return rep, err
			}
			if !out.AllCorrect() {
				rep.Pass = false
			}
			rep.Rows = append(rep.Rows, []string{
				itoa(tc.r), itoa(tMax), adv.name, itoa(len(adv.nodes)),
				itoa(out.Correct), itoa(out.Wrong), itoa(out.Undecided),
				itoa(out.Result.Stats.Rounds),
			})
		}
	}
	return rep, nil
}

// runE09Thm1Impossible: the Fig 13 checkerboard band at t = ⌈r(2r+1)/2⌉
// stalls every node between the bands; safety is preserved.
func runE09Thm1Impossible() (Report, error) {
	rep := Report{
		ID:         "E09",
		Title:      "Koo impossibility / Fig 13 — BV4 stalls at t = ⌈r(2r+1)/2⌉",
		PaperClaim: "reliable broadcast impossible for t ≥ ⌈r(2r+1)/2⌉; no wrong commits either way",
		Header:     []string{"r", "t", "middle nodes", "middle stalled", "wrong"},
		Pass:       true,
		Notes:      []string{"the half-plane construction is doubled (two bands) to cut the torus"},
	}
	for _, tc := range []struct{ r, w, h int }{{1, 16, 10}, {2, 32, 18}} {
		net, err := buildNet(tc.w, tc.h, tc.r, grid.Linf)
		if err != nil {
			return rep, err
		}
		tImp := bounds.MinImpossibleByzantineLinf(tc.r)
		band, err := fault.TorusBands(net, func(x0 int) ([]topology.NodeID, error) {
			return fault.CheckerboardBand(net, x0, tc.r)
		})
		if err != nil {
			return rep, err
		}
		if got := fault.MaxPerNeighborhood(net, band); got != tImp {
			return rep, fmt.Errorf("E09: construction max-per-nbd %d, want %d", got, tImp)
		}
		src := net.IDOf(grid.C(0, 0))
		out, err := protocol.Run(protocol.RunConfig{
			Kind:      protocol.BV4,
			Params:    protocol.Params{Net: net, Source: src, Value: 1, T: tImp},
			Byzantine: byzMap(band, fault.Silent),
		})
		if err != nil {
			return rep, err
		}
		mid := middleOf(net, tc.r, band)
		stalled := 0
		for _, id := range mid {
			if !out.Result.Decisions[id].Decided {
				stalled++
			}
		}
		if stalled != len(mid) || !out.Safe() {
			rep.Pass = false
		}
		rep.Rows = append(rep.Rows, []string{
			itoa(tc.r), itoa(tImp), itoa(len(mid)), itoa(stalled), itoa(out.Wrong),
		})
	}
	return rep, nil
}

// runE10CrashImpossible: Fig 8 — a width-r crash band (t = r(2r+1))
// partitions the network.
func runE10CrashImpossible() (Report, error) {
	rep := Report{
		ID:         "E10",
		Title:      "Theorem 4 / Fig 8 — crash band partitions at t = r(2r+1)",
		PaperClaim: "t = r(2r+1) crash faults make some nodes unreachable",
		Header:     []string{"r", "t", "middle nodes", "unreachable", "reached elsewhere"},
		Pass:       true,
		Notes:      []string{"the half-plane construction is doubled (two bands) to cut the torus"},
	}
	for _, tc := range []struct{ r, w, h int }{{1, 16, 10}, {2, 32, 18}} {
		net, err := buildNet(tc.w, tc.h, tc.r, grid.Linf)
		if err != nil {
			return rep, err
		}
		band, err := fault.TorusBands(net, func(x0 int) ([]topology.NodeID, error) {
			return fault.Band(net, x0, tc.r), nil
		})
		if err != nil {
			return rep, err
		}
		tImp := bounds.MinImpossibleCrashLinf(tc.r)
		if got := fault.MaxPerNeighborhood(net, band); got != tImp {
			return rep, fmt.Errorf("E10: construction max-per-nbd %d, want %d", got, tImp)
		}
		src := net.IDOf(grid.C(0, 0))
		out, err := protocol.Run(protocol.RunConfig{
			Kind:   protocol.Flood,
			Params: protocol.Params{Net: net, Source: src, Value: 1},
			Crash:  crashMap(band),
		})
		if err != nil {
			return rep, err
		}
		mid := middleOf(net, tc.r, band)
		unreachable := 0
		for _, id := range mid {
			if !out.Result.Decisions[id].Decided {
				unreachable++
			}
		}
		if unreachable != len(mid) || out.Wrong != 0 || out.Correct == 0 {
			rep.Pass = false
		}
		rep.Rows = append(rep.Rows, []string{
			itoa(tc.r), itoa(tImp), itoa(len(mid)), itoa(unreachable), itoa(out.Correct),
		})
	}
	return rep, nil
}

// runE11CrashPossible: Theorem 5 — flooding succeeds at t = r(2r+1)−1 under
// the greedy band and random placements.
func runE11CrashPossible() (Report, error) {
	rep := Report{
		ID:         "E11",
		Title:      "Theorem 5 / Figs 9-10 — flooding tolerates t = r(2r+1)−1",
		PaperClaim: "all correct nodes receive the broadcast for t < r(2r+1) (L∞)",
		Header:     []string{"r", "t", "adversary", "faults", "correct", "undecided"},
		Pass:       true,
	}
	for _, tc := range []struct{ r, w, h int }{{1, 16, 10}, {2, 32, 18}} {
		net, err := buildNet(tc.w, tc.h, tc.r, grid.Linf)
		if err != nil {
			return rep, err
		}
		tMax := bounds.MaxCrashLinf(tc.r)
		band, err := fault.TorusBands(net, func(x0 int) ([]topology.NodeID, error) {
			return fault.GreedyBand(net, x0, tc.r, tMax)
		})
		if err != nil {
			return rep, err
		}
		src := net.IDOf(grid.C(0, 0))
		random, err := fault.RandomBounded(net, tMax, -1, 11)
		if err != nil {
			return rep, err
		}
		random = removeID(random, src)
		for _, adv := range []struct {
			name  string
			nodes []topology.NodeID
		}{{"greedy band", band}, {"random bounded", random}} {
			out, err := protocol.Run(protocol.RunConfig{
				Kind:   protocol.Flood,
				Params: protocol.Params{Net: net, Source: src, Value: 1},
				Crash:  crashMap(adv.nodes),
			})
			if err != nil {
				return rep, err
			}
			if !out.AllCorrect() {
				rep.Pass = false
			}
			rep.Rows = append(rep.Rows, []string{
				itoa(tc.r), itoa(tMax), adv.name, itoa(len(adv.nodes)),
				itoa(out.Correct), itoa(out.Undecided),
			})
		}
	}
	return rep, nil
}

// runE12CPA: Theorem 6 — the simple protocol commits everywhere at
// t = ⌊2r²/3⌋, with the staged wavefront of Figs 14-19 recorded per round.
func runE12CPA() (Report, error) {
	rep := Report{
		ID:         "E12",
		Title:      "Theorem 6 / Figs 14-19 — CPA tolerates t = ⌊2r²/3⌋",
		PaperClaim: "the simple protocol achieves broadcast for t ≤ (2/3)r², dominating Koo's bound for large r",
		Header:     []string{"r", "t=2r²/3", "Koo bound", "adversary", "correct", "wrong", "undecided"},
		Pass:       true,
	}
	for _, tc := range []struct{ r, w, h int }{{2, 24, 14}, {3, 32, 20}} {
		net, err := buildNet(tc.w, tc.h, tc.r, grid.Linf)
		if err != nil {
			return rep, err
		}
		tCPA := bounds.MaxCPALinf(tc.r)
		band, err := fault.TorusBands(net, func(x0 int) ([]topology.NodeID, error) {
			return fault.GreedyBand(net, x0, tc.r, tCPA)
		})
		if err != nil {
			return rep, err
		}
		src := net.IDOf(grid.C(0, 0))
		for _, strat := range []fault.Strategy{fault.Silent, fault.Liar} {
			out, err := protocol.Run(protocol.RunConfig{
				Kind:      protocol.CPA,
				Params:    protocol.Params{Net: net, Source: src, Value: 1, T: tCPA},
				Byzantine: byzMap(band, strat),
			})
			if err != nil {
				return rep, err
			}
			if !out.AllCorrect() {
				rep.Pass = false
			}
			rep.Rows = append(rep.Rows, []string{
				itoa(tc.r), itoa(tCPA), itoa(bounds.KooCPALinf(tc.r)), strat.String(),
				itoa(out.Correct), itoa(out.Wrong), itoa(out.Undecided),
			})
			if strat == fault.Silent {
				// Figs 14-19 depict the staged growth of the committed
				// region; record the per-round commit profile as its
				// measurable counterpart.
				byRound := make(map[int]int)
				lastRound := 0
				for _, d := range out.Result.Decisions {
					if !d.Decided {
						continue
					}
					byRound[d.Round]++
					lastRound = max(lastRound, d.Round)
				}
				profile := ""
				for rd := 0; rd <= lastRound && rd <= 6; rd++ {
					profile += fmt.Sprintf("%d:%d ", rd, byRound[rd])
				}
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"r=%d commit wavefront (round:new commits) %s… full commit after %d rounds",
					tc.r, profile, lastRound))
			}
		}
	}
	return rep, nil
}

// runE13TwoHop: §VI-B — the simplified two-hop protocol matches the exact
// threshold.
func runE13TwoHop() (Report, error) {
	rep := Report{
		ID:         "E13",
		Title:      "§VI-B — two-hop protocol at t = ⌈r(2r+1)/2⌉−1",
		PaperClaim: "two-hop HEARD reports suffice for the same threshold as Theorem 1",
		Header:     []string{"r", "t", "adversary", "correct", "wrong", "undecided"},
		Pass:       true,
	}
	for _, tc := range []struct{ r, w, h int }{{1, 16, 10}, {2, 32, 18}} {
		net, err := buildNet(tc.w, tc.h, tc.r, grid.Linf)
		if err != nil {
			return rep, err
		}
		tMax := bounds.MaxByzantineLinf(tc.r)
		band, err := fault.TorusBands(net, func(x0 int) ([]topology.NodeID, error) {
			return fault.GreedyBand(net, x0, tc.r, tMax)
		})
		if err != nil {
			return rep, err
		}
		src := net.IDOf(grid.C(0, 0))
		for _, strat := range []fault.Strategy{fault.Silent, fault.Forger} {
			out, err := protocol.Run(protocol.RunConfig{
				Kind:      protocol.BV2,
				Params:    protocol.Params{Net: net, Source: src, Value: 1, T: tMax},
				Byzantine: byzMap(band, strat),
			})
			if err != nil {
				return rep, err
			}
			if !out.AllCorrect() {
				rep.Pass = false
			}
			rep.Rows = append(rep.Rows, []string{
				itoa(tc.r), itoa(tMax), strat.String(),
				itoa(out.Correct), itoa(out.Wrong), itoa(out.Undecided),
			})
		}
	}
	return rep, nil
}

// runE17Percolation: §XI — iid crash failures; delivered fraction vs p_f.
func runE17Percolation() (Report, error) {
	rep := Report{
		ID:         "E17",
		Title:      "§XI — random crash failures (site-percolation flavour)",
		PaperClaim: "random crash-stop failures behave like site percolation: reachability degrades sharply near a critical p_f",
		Header:     []string{"p_f", "runs", "mean delivered fraction"},
		Pass:       true,
		Notes:      []string{"qualitative claim: the paper only points at the percolation connection"},
	}
	net, err := buildNet(24, 24, 1, grid.Linf)
	if err != nil {
		return rep, err
	}
	src := net.IDOf(grid.C(0, 0))
	const runs = 5
	// meanAt is the mean delivered fraction over seeds 0..runs-1.
	meanAt := func(pf float64) (float64, error) {
		sum := 0.0
		for seed := int64(0); seed < runs; seed++ {
			faulty, err := fault.Percolation(net, pf, src, seed)
			if err != nil {
				return 0, err
			}
			out, err := protocol.Run(protocol.RunConfig{
				Kind:   protocol.Flood,
				Params: protocol.Params{Net: net, Source: src, Value: 1},
				Crash:  crashMap(faulty),
			})
			if err != nil {
				return 0, err
			}
			sum += float64(out.Correct) / float64(out.Honest)
		}
		return sum / runs, nil
	}
	var fractions []float64
	probs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	for _, pf := range probs {
		mean, err := meanAt(pf)
		if err != nil {
			return rep, err
		}
		fractions = append(fractions, mean)
		rep.Rows = append(rep.Rows, []string{ftoa(pf), itoa(runs), ftoa(mean)})
	}
	// Monotone degradation and a sharp drop across the sweep.
	for i := 1; i < len(fractions); i++ {
		if fractions[i] > fractions[i-1]+0.05 {
			rep.Pass = false
		}
	}
	if fractions[0] < 0.9 || fractions[len(fractions)-1] > 0.5 {
		rep.Pass = false
	}

	// Critical-point estimate: bisect for the p_f where the mean delivered
	// fraction crosses ½. Reliable broadcast under iid crash faults is
	// site percolation of the working nodes on the king graph (8-neighbor
	// lattice, site p_c ≈ 0.407), so the failure threshold should sit near
	// 1 − 0.407 ≈ 0.593.
	lo, hi := 0.45, 0.75
	for i := 0; i < 6; i++ {
		mid := (lo + hi) / 2
		mean, err := meanAt(mid)
		if err != nil {
			return rep, err
		}
		if mean > 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	crit := (lo + hi) / 2
	rep.Rows = append(rep.Rows, []string{"critical", "bisect", ftoa(crit)})
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"estimated critical p_f ≈ %.3f; king-graph site percolation predicts 1−0.407 ≈ 0.593 (finite-size torus shifts it upward)", crit))
	if crit < 0.5 || crit > 0.75 {
		rep.Pass = false
	}
	return rep, nil
}

// removeID filters one id out of a slice.
func removeID(ids []topology.NodeID, drop topology.NodeID) []topology.NodeID {
	out := ids[:0]
	for _, id := range ids {
		if id != drop {
			out = append(out, id)
		}
	}
	return out
}
