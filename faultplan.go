package rbcast

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/topology"
)

// Placement selects how the adversary positions its faults.
type Placement int

const (
	// PlaceNone runs fault-free.
	PlaceNone Placement = iota + 1
	// PlaceBand corrupts every node of a width-Radius vertical band,
	// doubled at the antipodal column so the torus is cut — the Fig 8
	// construction (t = r(2r+1) per neighborhood).
	PlaceBand
	// PlaceCheckerboardBand corrupts the (x+y)-even half of the band —
	// the Fig 13 construction (t = ⌈r(2r+1)/2⌉ per neighborhood).
	// Requires an even torus height.
	PlaceCheckerboardBand
	// PlaceGreedyBand packs as many faults into the two bands as the
	// locally bounded budget T allows — the strongest legal band
	// adversary for achievability experiments.
	PlaceGreedyBand
	// PlaceRandomBounded corrupts nodes in random order while the budget
	// T permits (up to Count faults; Count ≤ 0 means as many as
	// possible).
	PlaceRandomBounded
	// PlacePercolation corrupts each node independently with probability
	// Probability — the §XI random-failure model (ignores T).
	PlacePercolation
)

// placementNames is Placement's name table.
var placementNames = enumTable[Placement, struct{}]{"Placement", "placement", []enumEntry[struct{}]{
	{name: "none"},
	{name: "band"},
	{name: "checkerboard-band"},
	{name: "greedy-band"},
	{name: "random-bounded"},
	{name: "percolation"},
}}

// String names the placement.
func (p Placement) String() string { return placementNames.name(p) }

// MarshalText encodes the placement's name. The zero value encodes as "".
func (p Placement) MarshalText() ([]byte, error) { return placementNames.marshal(p) }

// UnmarshalText decodes a placement name; "" restores the zero value.
func (p *Placement) UnmarshalText(text []byte) error { return placementNames.unmarshal(text, p) }

// Strategy selects Byzantine behaviour for the corrupted nodes. For
// crash-stop experiments use StrategyCrash.
type Strategy int

const (
	// StrategyCrash silences corrupted nodes from round CrashRound
	// onward (crash-stop failures).
	StrategyCrash Strategy = iota + 1
	// StrategySilent Byzantine nodes never transmit.
	StrategySilent
	// StrategyLiar nodes announce a flipped committed value once.
	StrategyLiar
	// StrategyForger nodes flip their own announcement and forge
	// indirect reports about everything they hear.
	StrategyForger
	// StrategySpoofer nodes impersonate honest neighbors (§X what-if);
	// only effective when Config.SpoofingPossible is set.
	StrategySpoofer
	// StrategyEquivocator nodes endorse one value toward even-id receivers
	// and the flipped value toward odd-id ones, in every quorum dialect at
	// once — a directional-transmission what-if the quorum protocols
	// (ProtocolBracha family) are sensitive to and the paper's
	// locally-bounded protocols shrug off.
	StrategyEquivocator
)

// strategyNames is Strategy's name table: the wire name of each value and
// the Byzantine behaviour it selects (none for crash-stop).
var strategyNames = enumTable[Strategy, fault.Strategy]{"Strategy", "strategy", []enumEntry[fault.Strategy]{
	{"crash", 0},
	{"silent", fault.Silent},
	{"liar", fault.Liar},
	{"forger", fault.Forger},
	{"spoofer", fault.Spoofer},
	{"equivocator", fault.Equivocator},
}}

// String names the strategy.
func (s Strategy) String() string { return strategyNames.name(s) }

// MarshalText encodes the strategy's name. The zero value encodes as "".
func (s Strategy) MarshalText() ([]byte, error) { return strategyNames.marshal(s) }

// UnmarshalText decodes a strategy name; "" restores the zero value.
func (s *Strategy) UnmarshalText(text []byte) error { return strategyNames.unmarshal(text, s) }

// FaultPlan describes the adversary for one run. The JSON encoding (see
// encode.go) uses snake_case keys and stable enum names, omits zero-valued
// fields, and round-trips losslessly.
type FaultPlan struct {
	// Placement positions the faults; defaults to PlaceNone.
	Placement Placement `json:"placement,omitempty"`
	// Strategy selects behaviour; defaults to StrategyCrash.
	Strategy Strategy `json:"strategy,omitempty"`
	// Budget is the locally bounded budget for PlaceGreedyBand and
	// PlaceRandomBounded; 0 means "use Config.T".
	Budget int `json:"budget,omitempty"`
	// Count caps PlaceRandomBounded placements (≤ 0: maximal).
	Count int `json:"count,omitempty"`
	// Probability is the PlacePercolation failure probability.
	Probability float64 `json:"probability,omitempty"`
	// CrashRound is the round from which StrategyCrash nodes go silent
	// (0 = crashed from the start).
	CrashRound int `json:"crash_round,omitempty"`
	// Seed drives the randomized placements.
	Seed int64 `json:"seed,omitempty"`
	// budgetForPlan is resolved by Run (Config.T when Budget is 0).
	budgetForPlan int
}

// materialized is the resolved fault assignment.
type materialized struct {
	byzantine map[topology.NodeID]fault.Strategy
	crash     map[topology.NodeID]int
	faulty    []topology.NodeID
}

// materialize resolves the plan on a concrete network. The band placements
// are torus constructions (they corrupt grid columns) and reject every other
// family; the random placements work on any topology.Graph.
func (p FaultPlan) materialize(g topology.Graph, source topology.NodeID) (materialized, error) {
	placement := p.Placement
	if placement == 0 {
		placement = PlaceNone
	}
	budget := p.Budget
	if budget == 0 {
		budget = p.budgetForPlan
	}

	var ids []topology.NodeID
	var err error
	switch placement {
	case PlaceNone:
	case PlaceBand, PlaceCheckerboardBand, PlaceGreedyBand:
		net, ok := g.(*topology.Network)
		if !ok {
			return materialized{}, fmt.Errorf("rbcast: placement %s requires the torus topology, got family %q",
				placement, g.Family())
		}
		r := net.Radius()
		ids, err = fault.TorusBands(net, func(x0 int) ([]topology.NodeID, error) {
			switch placement {
			case PlaceBand:
				return fault.Band(net, x0, r), nil
			case PlaceCheckerboardBand:
				return fault.CheckerboardBand(net, x0, r)
			default:
				return fault.GreedyBand(net, x0, r, budget)
			}
		})
	case PlaceRandomBounded:
		count := p.Count
		if count <= 0 {
			count = -1 // maximal placement
		}
		ids, err = fault.RandomBounded(g, budget, count, p.Seed)
	case PlacePercolation:
		ids, err = fault.Percolation(g, p.Probability, source, p.Seed)
	default:
		return materialized{}, fmt.Errorf("rbcast: invalid placement %d", int(placement))
	}
	if err != nil {
		return materialized{}, err
	}

	ids = filterFaulty(ids, source)

	out := materialized{faulty: ids}
	strategy := p.Strategy
	if strategy == 0 {
		strategy = StrategyCrash
	}
	fs, ok := strategyNames.value(strategy)
	switch {
	case !ok:
		return materialized{}, fmt.Errorf("rbcast: invalid strategy %d", int(strategy))
	case strategy == StrategyCrash:
		out.crash = crashSchedule(ids, p.CrashRound)
	default:
		out.byzantine = make(map[topology.NodeID]fault.Strategy, len(ids))
		for _, id := range ids {
			out.byzantine[id] = fs
		}
	}
	return out, nil
}

// crashSchedule silences every faulty node from the given round onward.
func crashSchedule(faulty []topology.NodeID, round int) map[topology.NodeID]int {
	crash := make(map[topology.NodeID]int, len(faulty))
	for _, id := range faulty {
		crash[id] = round
	}
	return crash
}

// filterFaulty canonicalizes a raw placement: the designated source stays
// honest, and a node placed twice (the two antipodal band constructions are
// appended independently and may meet on a narrow torus) counts once —
// otherwise Result.Faults and MaxFaultsPerNeighborhood would double-count
// it. First occurrence wins, preserving placement order.
func filterFaulty(ids []topology.NodeID, source topology.NodeID) []topology.NodeID {
	seen := make(map[topology.NodeID]struct{}, len(ids))
	kept := ids[:0]
	for _, id := range ids {
		if id == source {
			continue
		}
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		kept = append(kept, id)
	}
	return kept
}

// MaxFaultsPerNeighborhood exhaustively measures the worst closed
// neighborhood of a materialized plan on the configured network — the
// ground-truth validator for the locally bounded constraint.
func MaxFaultsPerNeighborhood(cfg Config, plan FaultPlan) (int, error) {
	g, err := cfg.network()
	if err != nil {
		return 0, err
	}
	source, err := cfg.sourceID(g)
	if err != nil {
		return 0, err
	}
	plan.budgetForPlan = cfg.T
	m, err := plan.materialize(g, source)
	if err != nil {
		return 0, err
	}
	return fault.MaxPerNeighborhood(g, m.faulty), nil
}
