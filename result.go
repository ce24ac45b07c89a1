package rbcast

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/topology"
)

// Node is a grid location on the torus.
type Node struct {
	X, Y int
}

// String renders the node as "(x,y)".
func (n Node) String() string { return fmt.Sprintf("(%d,%d)", n.X, n.Y) }

// gridCoord converts public coordinates to the internal type.
func gridCoord(x, y int) grid.Coord { return grid.C(x, y) }

// Decision is one node's outcome.
type Decision struct {
	// Value is the committed value (meaningful when Decided).
	Value byte `json:"value,omitempty"`
	// Decided reports whether the node committed at all.
	Decided bool `json:"decided,omitempty"`
	// Round is the engine round of the commitment.
	Round int `json:"round,omitempty"`
}

// Result summarizes one run. The JSON encoding (see encode.go) uses
// snake_case keys, renders Decisions keys as "x,y" strings, and round-trips
// losslessly.
type Result struct {
	// Honest is the number of non-faulty nodes (including the source).
	Honest int `json:"honest,omitempty"`
	// Correct, Wrong, Undecided partition the honest nodes by outcome.
	Correct   int `json:"correct,omitempty"`
	Wrong     int `json:"wrong,omitempty"`
	Undecided int `json:"undecided,omitempty"`
	// Faults is the number of faulty nodes the plan placed.
	Faults int `json:"faults,omitempty"`
	// MaxFaultsPerNbd is the worst closed-neighborhood fault count of the
	// placement (the locally bounded adversary's "t" actually used).
	MaxFaultsPerNbd int `json:"max_faults_per_nbd,omitempty"`
	// Rounds, Broadcasts, Deliveries are engine traffic statistics.
	Rounds     int `json:"rounds,omitempty"`
	Broadcasts int `json:"broadcasts,omitempty"`
	Deliveries int `json:"deliveries,omitempty"`
	// Quiesced reports whether the run ended with no traffic left.
	Quiesced bool `json:"quiesced,omitempty"`
	// Decisions maps every node to its outcome (faulty nodes included;
	// adversarial processes never decide).
	Decisions map[Node]Decision `json:"decisions,omitempty"`
	// Faulty lists the corrupted nodes in id order.
	Faulty []Node `json:"faulty,omitempty"`
	// Metrics carries the engine's detailed counters: per-round traffic
	// histograms, evidence-evaluation counts and wall-clock time. The
	// per-round broadcast/delivery columns sum to Broadcasts/Deliveries.
	Metrics Metrics `json:"metrics,omitempty"`
	// Trace is the structured execution trace recorded when Config.Trace
	// was set; nil otherwise. Sequential-engine traces are fully
	// deterministic. The concurrent engine orders broadcasts and
	// deliveries deterministically but interleaves protocol events
	// (evidence evaluations, commits) in scheduler order within a round;
	// sort by (round, kind, node) before comparing such traces.
	Trace []TraceEvent `json:"trace,omitempty"`
}

// RoundMetrics is one engine round's event counts. Round 0 is process
// initialization; transmissions start in round 1.
type RoundMetrics struct {
	// Broadcasts counts local broadcasts transmitted in the round
	// (including blind retransmissions on a lossy medium).
	Broadcasts int `json:"broadcasts,omitempty"`
	// Deliveries counts per-receiver message deliveries in the round.
	Deliveries int `json:"deliveries,omitempty"`
	// EvidenceEvals counts commit-rule evidence evaluations by honest
	// processes in the round: BV4's and BV2's disjoint-path checks and
	// Bracha's quorum re-checks.
	EvidenceEvals int `json:"evidence_evals,omitempty"`
	// Commits counts first-time decisions observed in the round.
	Commits int `json:"commits,omitempty"`
}

// Metrics carries a run's detailed counters beyond the headline totals.
type Metrics struct {
	// EvidenceEvals totals the commit-rule evidence evaluations performed
	// by honest processes — the computational hot spot of the
	// indirect-report protocols. Zero for Flood and CPA.
	EvidenceEvals int `json:"evidence_evals,omitempty"`
	// Commits totals first-time decisions (equals the number of decided
	// nodes in Decisions).
	Commits int `json:"commits,omitempty"`
	// PerRound indexes counters by engine round, starting at round 0.
	PerRound []RoundMetrics `json:"per_round,omitempty"`
	// Wall is the run's wall-clock duration in nanoseconds.
	Wall time.Duration `json:"wall_ns,omitempty"`
}

// CommitRounds returns the histogram of first-commit rounds as a map from
// round to the number of nodes that first decided in it.
func (m Metrics) CommitRounds() map[int]int {
	out := make(map[int]int)
	for round, rc := range m.PerRound {
		if rc.Commits > 0 {
			out[round] = rc.Commits
		}
	}
	return out
}

// newMetrics converts an internal collector snapshot and the run's
// wall-clock duration, which the caller times.
func newMetrics(s metrics.Snapshot, wall time.Duration) Metrics {
	m := Metrics{
		EvidenceEvals: int(s.EvidenceEvals),
		Commits:       int(s.Commits),
		Wall:          wall,
	}
	if len(s.PerRound) > 0 {
		m.PerRound = make([]RoundMetrics, len(s.PerRound))
		for i, rc := range s.PerRound {
			m.PerRound[i] = RoundMetrics{
				Broadcasts:    int(rc.Broadcasts),
				Deliveries:    int(rc.Deliveries),
				EvidenceEvals: int(rc.EvidenceEvals),
				Commits:       int(rc.Commits),
			}
		}
	}
	return m
}

// AllCorrect reports whether every honest node committed the source value —
// the success criterion of reliable broadcast.
func (r Result) AllCorrect() bool { return r.Wrong == 0 && r.Undecided == 0 }

// Safe reports whether no honest node committed a wrong value (Theorem 2's
// guarantee, which holds even when liveness fails).
func (r Result) Safe() bool { return r.Wrong == 0 }

// newResult converts an internal outcome. Nodes are labeled through
// topology.Graph.Label: grid coordinates on the torus, (id, 0) elsewhere —
// so torus results keep their historical "x,y" keys and non-torus results
// read as "id,0".
func newResult(g topology.Graph, out protocol.Outcome, m materialized) Result {
	res := Result{
		Honest:     out.Honest,
		Correct:    out.Correct,
		Wrong:      out.Wrong,
		Undecided:  out.Undecided,
		Faults:     len(m.faulty),
		Rounds:     out.Result.Stats.Rounds,
		Broadcasts: out.Result.Stats.Broadcasts,
		Deliveries: out.Result.Stats.Deliveries,
		Quiesced:   out.Result.Stats.Quiesced,
		Decisions:  make(map[Node]Decision, g.Size()),
	}
	if len(m.faulty) > 0 {
		res.MaxFaultsPerNbd = fault.MaxPerNeighborhood(g, m.faulty)
		res.Faulty = make([]Node, len(m.faulty))
		for i, id := range m.faulty {
			x, y := g.Label(id)
			res.Faulty[i] = Node{X: x, Y: y}
		}
	}
	for i, d := range out.Result.Decisions {
		x, y := g.Label(topology.NodeID(i))
		res.Decisions[Node{X: x, Y: y}] = Decision(d)
	}
	return res
}
