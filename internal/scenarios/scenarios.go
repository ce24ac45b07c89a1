package scenarios

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	rbcast "repro"
)

// Scenario is one named workload.
type Scenario struct {
	// Name is the stable identifier used in BENCH_*.json and the golden
	// file. Renaming a scenario orphans its golden entry; add new names
	// instead.
	Name string
	// Config and Plan define the run.
	Config rbcast.Config
	Plan   rbcast.FaultPlan
}

// Matrix returns the canonical scenario list in stable order.
//
// Threshold coverage follows the paper's structure: "below" places fewer
// faults than the protocol tolerates, "at" places the maximum tolerated
// (the run must still be AllCorrect), "above" exceeds the bound (honest
// nodes are expected to stall undecided — the run itself stays
// deterministic, which is all the harness needs).
func Matrix() []Scenario {
	rCPA := 2
	tCPA := rbcast.MaxCPALinf(rCPA) // Theorem 6 bound
	rBV := 1
	tBV := rbcast.MaxByzantineLinf(rBV) // Theorem 1 bound
	return []Scenario{
		// Flood: the raw engine cost of one full broadcast wave (§VII).
		{
			Name:   "flood/seq/32x32r2",
			Config: rbcast.Config{Width: 32, Height: 32, Radius: 2, Protocol: rbcast.ProtocolFlood, Value: 1},
		},
		{
			Name:   "flood/conc/32x32r2",
			Config: rbcast.Config{Width: 32, Height: 32, Radius: 2, Protocol: rbcast.ProtocolFlood, Value: 1, Concurrent: true},
		},
		{
			Name:   "flood/lockstep/32x32r2",
			Config: rbcast.Config{Width: 32, Height: 32, Radius: 2, Protocol: rbcast.ProtocolFlood, Value: 1, LockStep: true},
		},
		// Flood under the crash-stop band adversary (Theorem 5 territory).
		{
			Name:   "flood/crash-band/16x10r1",
			Config: rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash, CrashRound: 2},
		},
		// Flood on the lossy medium (§II/§X probabilistic local broadcast).
		{
			Name:   "flood/lossy/24x24r2",
			Config: rbcast.Config{Width: 24, Height: 24, Radius: 2, Protocol: rbcast.ProtocolFlood, Value: 1, LossRate: 0.3, Retransmit: 3, MediumSeed: 7},
		},
		// CPA below / at / above the Theorem 6 threshold.
		{
			Name:   "cpa/below/24x14r2",
			Config: rbcast.Config{Width: 24, Height: 14, Radius: rCPA, Protocol: rbcast.ProtocolCPA, T: tCPA - 1, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
		},
		{
			Name:   "cpa/at/24x14r2",
			Config: rbcast.Config{Width: 24, Height: 14, Radius: rCPA, Protocol: rbcast.ProtocolCPA, T: tCPA, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
		},
		{
			Name:   "cpa/above/24x14r2",
			Config: rbcast.Config{Width: 24, Height: 14, Radius: rCPA, Protocol: rbcast.ProtocolCPA, T: tCPA + 1, Value: 1, MaxRounds: 64},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
		},
		// BV4 below / at / above the Theorem 1 threshold, forger adversary.
		{
			Name:   "bv4/below/16x10r1",
			Config: rbcast.Config{Width: 16, Height: 10, Radius: rBV, Protocol: rbcast.ProtocolBV4, T: tBV - 1, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyForger},
		},
		{
			Name:   "bv4/at/16x10r1",
			Config: rbcast.Config{Width: 16, Height: 10, Radius: rBV, Protocol: rbcast.ProtocolBV4, T: tBV, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyForger},
		},
		{
			Name:   "bv4/above/16x10r1",
			Config: rbcast.Config{Width: 16, Height: 10, Radius: rBV, Protocol: rbcast.ProtocolBV4, T: tBV + 1, Value: 1, MaxRounds: 64},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
		},
		// BV4 on the concurrent engine at the threshold.
		{
			Name:   "bv4/conc-at/16x10r1",
			Config: rbcast.Config{Width: 16, Height: 10, Radius: rBV, Protocol: rbcast.ProtocolBV4, T: tBV, Value: 1, Concurrent: true},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyForger},
		},
		// BV4 with exhaustive (exact set-packing) evidence evaluation.
		{
			Name:   "bv4/exact-at/16x10r1",
			Config: rbcast.Config{Width: 16, Height: 10, Radius: rBV, Protocol: rbcast.ProtocolBV4, T: tBV, Value: 1, ExactEvidence: true},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyForger},
		},
		// BV4 under identity spoofing (§X sensitivity study).
		{
			Name:   "bv4/spoof/16x10r1",
			Config: rbcast.Config{Width: 16, Height: 10, Radius: rBV, Protocol: rbcast.ProtocolBV4, T: tBV, Value: 1, SpoofingPossible: true, MaxRounds: 64},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySpoofer},
		},
		// BV2 at the threshold (silent and lying adversaries).
		{
			Name:   "bv2/at/16x10r1",
			Config: rbcast.Config{Width: 16, Height: 10, Radius: rBV, Protocol: rbcast.ProtocolBV2, T: tBV, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent},
		},
		{
			Name:   "bv2/liar-at/16x10r1",
			Config: rbcast.Config{Width: 16, Height: 10, Radius: rBV, Protocol: rbcast.ProtocolBV2, T: tBV, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyLiar},
		},
		// Non-torus families end to end: the rgg "noisy torus" bridge and
		// an explicit chord-ring adjacency list, on the family-agnostic
		// protocols. These exercise the Graph interface through the same
		// run/cache/fingerprint surface as the torus scenarios.
		{
			Name:   "flood/rgg/n64",
			Config: rbcast.Config{Topology: rbcast.TopologyRGG, Nodes: 64, RGGRadius: 0.22, TopologySeed: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
		},
		{
			Name:   "cpa/rgg-random/n64",
			Config: rbcast.Config{Topology: rbcast.TopologyRGG, Nodes: 64, RGGRadius: 0.22, TopologySeed: 1, Protocol: rbcast.ProtocolCPA, T: 1, Value: 1, MaxRounds: 64},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategySilent, Count: 4, Seed: 11},
		},
		{
			Name:   "flood/custom/ring16",
			Config: rbcast.Config{Topology: rbcast.TopologyCustom, Graph: chordRing(16, 4), Protocol: rbcast.ProtocolFlood, Value: 1},
		},
		{
			Name:   "cpa/custom/ring16",
			Config: rbcast.Config{Topology: rbcast.TopologyCustom, Graph: chordRing(16, 4), Protocol: rbcast.ProtocolCPA, T: 1, Value: 1, MaxRounds: 64},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategyLiar, Count: 2, Seed: 5},
		},
		// The Bracha quorum family (N ≥ 3T+1) under the radio harness, on
		// all three topology families. The plain variant counts
		// endorsements by physical sender, so its graphs are effectively
		// complete (the 5×5 r2 torus and the radius-0.75 rgg are complete
		// under their metrics; K13 explicitly so); the authenticated
		// variant assembles quorums across multi-hop relays on a sparse
		// rgg. The at-threshold runs place exactly T silent faults, making
		// the N−T ECHO and 2T+1 READY quorums exact.
		{
			Name:   "bracha/at/5x5r2",
			Config: rbcast.Config{Width: 5, Height: 5, Radius: 2, Protocol: rbcast.ProtocolBracha, T: 8, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategySilent, Count: 8, Seed: 3},
		},
		{
			Name:   "bracha/conc-at/5x5r2",
			Config: rbcast.Config{Width: 5, Height: 5, Radius: 2, Protocol: rbcast.ProtocolBracha, T: 8, Value: 1, Concurrent: true},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategySilent, Count: 8, Seed: 3},
		},
		{
			Name:   "bracha-auth/at/5x5r2",
			Config: rbcast.Config{Width: 5, Height: 5, Radius: 2, Protocol: rbcast.ProtocolBrachaAuth, T: 8, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategySilent, Count: 8, Seed: 3},
		},
		{
			Name:   "bracha/rgg-at/n48",
			Config: rbcast.Config{Topology: rbcast.TopologyRGG, Nodes: 48, RGGRadius: 0.75, TopologySeed: 5, Protocol: rbcast.ProtocolBracha, T: 5, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategySilent, Count: 5, Seed: 7},
		},
		{
			Name:   "bracha/custom-at/k13",
			Config: rbcast.Config{Topology: rbcast.TopologyCustom, Graph: complete(13), Protocol: rbcast.ProtocolBracha, T: 4, Value: 1},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategySilent, Count: 4, Seed: 3},
		},
		// Equivocation below the quorum bound: 3 two-faced nodes against
		// T = 4 are absorbed — the run must stay AllCorrect. (The breach
		// at f ≥ N/3 lives in the what-if test, not the golden matrix.)
		{
			Name:   "bracha/equivocator/k13",
			Config: rbcast.Config{Topology: rbcast.TopologyCustom, Graph: complete(13), Protocol: rbcast.ProtocolBracha, T: 4, Value: 1, MaxRounds: 64},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategyEquivocator, Count: 3, Seed: 3},
		},
		{
			Name:   "bracha-auth/rgg/n32",
			Config: rbcast.Config{Topology: rbcast.TopologyRGG, Nodes: 32, RGGRadius: 0.3, TopologySeed: 2, Protocol: rbcast.ProtocolBrachaAuth, T: 2, Value: 1, MaxRounds: 128},
			Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceRandomBounded, Strategy: rbcast.StrategySilent, Count: 2, Seed: 4},
		},
	}
}

// SweepGrid is one named sweep workload.
type SweepGrid struct {
	// Name identifies the grid in cmd/bench -sweep output.
	Name string
	// Spec is the grid.
	Spec rbcast.SweepSpec
}

// SweepGrids returns the canonical sweep grids: crash-round sweeps whose
// dead threshold axis and shared wavefront prefixes are what the sweep
// engine exists to exploit, across both protocols whose engines fork.
// cmd/bench -sweep gates them against scalar runs, and the root
// TestSweepAllocs budgets their allocations.
func SweepGrids() []SweepGrid {
	crashRounds := make([]int, 24)
	for i := range crashRounds {
		crashRounds[i] = i + 1
	}
	return []SweepGrid{
		{"flood/40x30", rbcast.SweepSpec{
			Base: rbcast.Job{
				Config: rbcast.Config{Width: 40, Height: 30, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
				Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
			},
			Axes: rbcast.SweepAxes{Ts: []int{0, 1, 2}, CrashRounds: crashRounds},
		}},
		{"cpa/32x24", rbcast.SweepSpec{
			Base: rbcast.Job{
				Config: rbcast.Config{Width: 32, Height: 24, Radius: 2, Protocol: rbcast.ProtocolCPA, T: 2, Value: 1},
				Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyCrash},
			},
			Axes: rbcast.SweepAxes{Seeds: []int64{1, 2}, CrashRounds: crashRounds[:16]},
		}},
	}
}

// complete builds K_n — the quorum family's home turf, where every
// endorsement is heard by every node in one hop.
func complete(n int) *rbcast.GraphSpec {
	spec := &rbcast.GraphSpec{Nodes: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			spec.Edges = append(spec.Edges, [2]int{i, j})
		}
	}
	return spec
}

// chordRing builds the custom-family benchmark graph: an n-cycle with a
// chord from every node to the one `chord` steps ahead — a planar,
// loosely-connected instance in the spirit of the Maurer–Tixeuil examples.
func chordRing(n, chord int) *rbcast.GraphSpec {
	spec := &rbcast.GraphSpec{Nodes: n}
	for i := 0; i < n; i++ {
		spec.Edges = append(spec.Edges, [2]int{i, (i + 1) % n})
		spec.Edges = append(spec.Edges, [2]int{i, (i + chord) % n})
	}
	return spec
}

// ResultHash returns the canonical SHA-256 of a Result's lossless JSON
// encoding with the one nondeterministic field (Metrics.Wall) zeroed. Two
// runs of the same scenario hash identically iff every decision, round
// number, traffic counter and per-round histogram bucket matches.
func ResultHash(res rbcast.Result) (string, error) {
	res.Metrics.Wall = 0
	blob, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("scenarios: encoding result: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}
