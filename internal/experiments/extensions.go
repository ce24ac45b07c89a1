package experiments

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/topology"
)

func init() {
	register("E21", runE21CPATightness)
	register("E22", runE22Spoofing)
	register("E23", runE23LossyMedium)
}

// runE21CPATightness probes the "region of uncertainty" between the simple
// protocol's proved bound ⌊2r²/3⌋ (Theorem 6) and the exact threshold
// ⌈r(2r+1)/2⌉−1: on the torus, does any locally bounded adversary placement
// actually stall CPA in that band? Koo's original analysis left this gap
// open (§III: "the achievability bounds do not match the impossibility
// bound, leaving a region of uncertainty").
func runE21CPATightness() (Report, error) {
	rep := Report{
		ID:         "E21",
		Title:      "CPA beyond Theorem 6 — probing the region of uncertainty",
		PaperClaim: "t ≤ ⌊2r²/3⌋ is proved sufficient for CPA; between it and ⌈r(2r+1)/2⌉−1 the paper is silent",
		Header:     []string{"r", "t", "vs Thm6 bound", "adversaries tried", "CPA stalled", "CPA wrong"},
		Pass:       true,
		Notes: []string{
			"an empirical tightness probe, not a theorem: maximal random and band placements never stalled CPA on these tori",
			"at t = ⌈r(2r+1)/2⌉ (one beyond the exact threshold) the Fig 13 construction stalls every protocol, CPA included",
		},
	}
	r := 2
	net, err := buildNet(32, 18, r, grid.Linf)
	if err != nil {
		return rep, err
	}
	src := net.IDOf(grid.C(0, 0))
	tCPA := bounds.MaxCPALinf(r)
	tExact := bounds.MaxByzantineLinf(r)
	for tVal := tCPA; tVal <= tExact; tVal++ {
		tried, stalled, wrong := 0, 0, 0
		// Maximal random placements.
		for seed := int64(0); seed < 5; seed++ {
			byz, err := fault.RandomBounded(net, tVal, -1, seed)
			if err != nil {
				return rep, err
			}
			byz = removeID(byz, src)
			out, err := protocol.Run(protocol.RunConfig{
				Kind:      protocol.CPA,
				Params:    protocol.Params{Net: net, Source: src, Value: 1, T: tVal},
				Byzantine: byzMap(byz, fault.Silent),
			})
			if err != nil {
				return rep, err
			}
			tried++
			if out.Undecided > 0 {
				stalled++
			}
			wrong += out.Wrong
		}
		// Greedy band placement.
		band, err := fault.TorusBands(net, func(x0 int) ([]topology.NodeID, error) {
			return fault.GreedyBand(net, x0, r, tVal)
		})
		if err != nil {
			return rep, err
		}
		out, err := protocol.Run(protocol.RunConfig{
			Kind:      protocol.CPA,
			Params:    protocol.Params{Net: net, Source: src, Value: 1, T: tVal},
			Byzantine: byzMap(band, fault.Silent),
		})
		if err != nil {
			return rep, err
		}
		tried++
		if out.Undecided > 0 {
			stalled++
		}
		wrong += out.Wrong
		vs := "at bound"
		if tVal > tCPA {
			vs = fmt.Sprintf("+%d beyond", tVal-tCPA)
		}
		// Safety must hold everywhere; liveness is the open question and
		// is reported, not asserted — except at the proved bound itself.
		if wrong > 0 || (tVal == tCPA && stalled > 0) {
			rep.Pass = false
		}
		rep.Rows = append(rep.Rows, []string{
			itoa(r), itoa(tVal), vs, itoa(tried), itoa(stalled), itoa(wrong),
		})
	}
	// Sanity anchor: one past the exact threshold the checkerboard band
	// stalls CPA too.
	band, err := fault.TorusBands(net, func(x0 int) ([]topology.NodeID, error) {
		return fault.CheckerboardBand(net, x0, r)
	})
	if err != nil {
		return rep, err
	}
	out, err := protocol.Run(protocol.RunConfig{
		Kind:      protocol.CPA,
		Params:    protocol.Params{Net: net, Source: src, Value: 1, T: bounds.MinImpossibleByzantineLinf(r)},
		Byzantine: byzMap(band, fault.Silent),
	})
	if err != nil {
		return rep, err
	}
	if out.Undecided == 0 {
		rep.Pass = false
	}
	rep.Rows = append(rep.Rows, []string{
		itoa(r), itoa(bounds.MinImpossibleByzantineLinf(r)), "impossibility", "1",
		itoa(boolToInt(out.Undecided > 0)), itoa(out.Wrong),
	})
	return rep, nil
}

// runE22Spoofing drops the no-address-spoofing assumption (§X): the same
// placement that is harmless under the authenticated medium destroys safety
// once spoofing is possible — for every protocol.
func runE22Spoofing() (Report, error) {
	rep := Report{
		ID:         "E22",
		Title:      "§X — address spoofing sensitivity (what-if)",
		PaperClaim: "\"if address spoofing is allowed, any malicious node may attempt to impersonate any honest node\" — reliable broadcast becomes extremely difficult",
		Header:     []string{"protocol", "medium", "faults", "correct", "wrong", "undecided", "safe"},
		Pass:       true,
		Notes: []string{
			"the spoofer impersonates each neighbor it hears, announcing flipped values under the stolen identity",
			"with authentication (the paper's model) the same adversary is harmless",
		},
	}
	r := 1
	net, err := buildNet(16, 16, r, grid.Linf)
	if err != nil {
		return rep, err
	}
	src := net.IDOf(grid.C(0, 0))
	byz, err := fault.RandomBounded(net, 1, -1, 9)
	if err != nil {
		return rep, err
	}
	byz = removeID(byz, src)
	for _, kind := range []protocol.Kind{protocol.CPA, protocol.BV2, protocol.BV4} {
		for _, spoofing := range []bool{false, true} {
			out, err := protocol.Run(protocol.RunConfig{
				Kind: kind,
				Params: protocol.Params{
					Net: net, Source: src, Value: 1, T: 1,
					SpoofingPossible: spoofing,
				},
				Byzantine: byzMap(byz, fault.Spoofer),
			})
			if err != nil {
				return rep, err
			}
			medium := "authenticated"
			if spoofing {
				medium = "spoofable"
			}
			// Under authentication the run must be perfect; under spoofing
			// the demonstration expects broken safety or liveness.
			if !spoofing && !out.AllCorrect() {
				rep.Pass = false
			}
			if spoofing && out.AllCorrect() {
				rep.Pass = false
			}
			rep.Rows = append(rep.Rows, []string{
				kind.String(), medium, itoa(len(byz)),
				itoa(out.Correct), itoa(out.Wrong), itoa(out.Undecided),
				fmt.Sprintf("%v", out.Safe()),
			})
		}
	}
	return rep, nil
}

// runE23LossyMedium implements the probabilistic local-broadcast primitive
// the paper sketches in §II ("transmissions are successfully received with a
// certain probability"): per-receiver iid loss plus blind retransmission.
// Accidental collisions are "treated akin to transmission errors" (§II); the
// sweep shows retransmission restores delivery.
func runE23LossyMedium() (Report, error) {
	rep := Report{
		ID:         "E23",
		Title:      "§II/§X — lossy medium with a probabilistic local-broadcast primitive",
		PaperClaim: "a local-broadcast primitive with probabilistic guarantees can stand in for the reliable-channel assumption; accidental collisions are handled like transmission errors",
		Header:     []string{"protocol", "loss", "retx", "runs", "mean delivered", "wrong total"},
		Pass:       true,
		Notes: []string{
			"loss is benign (random), not adversarial: §X notes unbounded adversarial collisions make broadcast impossible",
		},
	}
	r := 1
	net, err := buildNet(16, 10, r, grid.Linf)
	if err != nil {
		return rep, err
	}
	src := net.IDOf(grid.C(0, 0))
	const runs = 5
	for _, kind := range []protocol.Kind{protocol.Flood, protocol.CPA} {
		tVal := 0
		if kind == protocol.CPA {
			tVal = 0 // fault-free: isolate channel effects
		}
		for _, tc := range []struct {
			loss float64
			retx int
		}{
			{0.70, 1},
			{0.30, 1},
			{0.30, 3},
			{0.30, 6},
			{0.50, 6},
		} {
			sumFrac := 0.0
			wrong := 0
			for seed := int64(0); seed < runs; seed++ {
				factory, err := protocol.NewFactory(kind, protocol.Params{
					Net: net, Source: src, Value: 1, T: tVal,
				})
				if err != nil {
					return rep, err
				}
				res, err := sim.Run(sim.Config{
					Net:     net,
					Factory: factory,
					Medium:  sim.Medium{LossRate: tc.loss, Retransmit: tc.retx, Seed: seed},
				})
				if err != nil {
					return rep, err
				}
				correct, bad := 0, 0
				for _, d := range res.Decisions {
					switch {
					case !d.Decided:
					case d.Value == 1:
						correct++
					default:
						bad++
					}
				}
				sumFrac += float64(correct) / float64(net.Size())
				wrong += bad
			}
			mean := sumFrac / runs
			// With enough retransmissions the probabilistic primitive must
			// deliver everywhere; with a single transmission at 30% loss it
			// must visibly degrade. Wrong commits never happen — loss can
			// only remove messages.
			if tc.retx >= 6 && mean < 0.999 {
				rep.Pass = false
			}
			if tc.loss >= 0.7 && tc.retx == 1 && mean > 0.98 {
				rep.Pass = false // a raw 70%-loss channel must visibly degrade
			}
			if wrong > 0 {
				rep.Pass = false
			}
			rep.Rows = append(rep.Rows, []string{
				kind.String(), ftoa(tc.loss), itoa(tc.retx), itoa(runs),
				ftoa(mean), itoa(wrong),
			})
		}
	}
	return rep, nil
}

// boolToInt converts a bool for row formatting.
func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
