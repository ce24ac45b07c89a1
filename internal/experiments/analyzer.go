package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/bounds"
	"repro/internal/evidence"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/topology"
)

func init() {
	register("E24", runE24Analyzer)
}

// runE24Analyzer differentially validates the static outcome analyzer
// against the simulator: for crash-stop flooding, the simple protocol and
// the indirect-report protocol, the guaranteed-commit closure must equal
// the simulated committed set node-for-node under silent adversaries.
func runE24Analyzer() (Report, error) {
	rep := Report{
		ID:         "E24",
		Title:      "Static outcome analyzer ≡ simulator (differential validation)",
		PaperClaim: "(infrastructure) the §VI/§VII/§IX commit closures predict the silent-adversary outcome exactly",
		Header:     []string{"protocol", "scenario", "nodes", "predicted commits", "simulated commits", "agree"},
		Pass:       true,
	}
	r := 1
	net, err := buildNet(16, 10, r, grid.Linf)
	if err != nil {
		return rep, err
	}
	src := net.IDOf(grid.C(0, 0))
	ft, err := evidence.NewFamilyTable(r)
	if err != nil {
		return rep, err
	}

	type scenario struct {
		name   string
		faults []topology.NodeID
		tVal   int
	}
	band, err := fault.TorusBands(net, func(x0 int) ([]topology.NodeID, error) {
		return fault.CheckerboardBand(net, x0, r)
	})
	if err != nil {
		return rep, err
	}
	random, err := fault.RandomBounded(net, bounds.MaxByzantineLinf(r), -1, 6)
	if err != nil {
		return rep, err
	}
	random = removeID(random, src)
	// At Koo's bound direct hearing alone stalls BV4; the closure agrees
	// with the simulator only through its designated-path term.
	koo, err := fault.RandomBounded(net, bounds.MinImpossibleByzantineLinf(r), -1, 6)
	if err != nil {
		return rep, err
	}
	koo = removeID(koo, src)
	scenarios := []scenario{
		{"fault-free", nil, bounds.MaxByzantineLinf(r)},
		{"random band budget", random, bounds.MaxByzantineLinf(r)},
		{"Fig 13 checkerboard", band, bounds.MinImpossibleByzantineLinf(r)},
		{"random, Koo's bound", koo, bounds.MinImpossibleByzantineLinf(r)},
	}

	check := func(name, scen string, pred analysis.Prediction, res sim.Result) error {
		agree := true
		for id, d := range res.Decisions {
			if pred.Committed[id] != d.Decided {
				agree = false
			}
		}
		if !agree {
			rep.Pass = false
		}
		rep.Rows = append(rep.Rows, []string{
			name, scen, itoa(net.Size()), itoa(pred.Count), itoa(res.Commits()), fmt.Sprintf("%v", agree),
		})
		return nil
	}

	for _, sc := range scenarios {
		// Flood (crash faults).
		pred, err := analysis.FloodReachable(net, src, sc.faults)
		if err != nil {
			return rep, err
		}
		out, err := protocol.Run(protocol.RunConfig{
			Kind:   protocol.Flood,
			Params: protocol.Params{Net: net, Source: src, Value: 1},
			Crash:  crashMap(sc.faults),
		})
		if err != nil {
			return rep, err
		}
		if err := check("flood", sc.name, pred, out.Result); err != nil {
			return rep, err
		}
		// CPA (silent Byzantine).
		predC, err := analysis.CPAClosure(net, src, sc.faults, sc.tVal)
		if err != nil {
			return rep, err
		}
		outC, err := protocol.Run(protocol.RunConfig{
			Kind:      protocol.CPA,
			Params:    protocol.Params{Net: net, Source: src, Value: 1, T: sc.tVal},
			Byzantine: byzMap(sc.faults, fault.Silent),
		})
		if err != nil {
			return rep, err
		}
		if err := check("cpa", sc.name, predC, outC.Result); err != nil {
			return rep, err
		}
		// BV4 (silent Byzantine).
		predB, err := analysis.BV4Closure(net, ft, src, sc.faults, sc.tVal)
		if err != nil {
			return rep, err
		}
		outB, err := protocol.Run(protocol.RunConfig{
			Kind:      protocol.BV4,
			Params:    protocol.Params{Net: net, Source: src, Value: 1, T: sc.tVal},
			Byzantine: byzMap(sc.faults, fault.Silent),
		})
		if err != nil {
			return rep, err
		}
		if err := check("bv4", sc.name, predB, outB.Result); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
