package metrics

import (
	"sync"

	"repro/internal/etrace"
	"repro/internal/topology"
)

// RoundCounters is one engine round's event counts. Round 0 is process
// initialization (the source's first broadcast is queued there but
// transmitted in round 1).
type RoundCounters struct {
	// Broadcasts counts local broadcasts transmitted in the round
	// (including blind retransmissions on a lossy medium).
	Broadcasts int64
	// Deliveries counts per-receiver message deliveries in the round.
	Deliveries int64
	// EvidenceEvals counts commit-rule evidence evaluations performed by
	// honest processes in the round: BV4's and BV2's disjoint-path checks
	// and Bracha's quorum re-checks.
	EvidenceEvals int64
	// Commits counts first-time decisions observed in the round.
	Commits int64
}

// Snapshot is a consistent copy of a collector's counts.
type Snapshot struct {
	// Broadcasts, Deliveries, EvidenceEvals, Commits are run totals: the
	// column sums over PerRound.
	Broadcasts, Deliveries, EvidenceEvals, Commits int64
	// PerRound indexes counters by engine round, starting at round 0.
	PerRound []RoundCounters
}

// Collector accumulates per-round engine counters and, when recording,
// every event in record order. The zero value counts; a nil *Collector
// discards everything.
type Collector struct {
	record bool // set by NewRecording, immutable afterwards

	mu     sync.Mutex
	rounds []RoundCounters
	events []etrace.Event
}

// New returns an empty collector that counts.
func New() *Collector { return &Collector{} }

// NewRecording returns an empty collector that counts and also keeps every
// event with its certificate.
func NewRecording() *Collector { return &Collector{record: true} }

// Recording reports whether events are being kept. Protocols use it to
// skip certificate construction entirely on untraced runs.
func (c *Collector) Recording() bool { return c != nil && c.record }

// round returns the per-round bucket, growing the histogram as needed.
// Callers must hold c.mu.
func (c *Collector) round(r int) *RoundCounters {
	if r < 0 {
		r = 0
	}
	for len(c.rounds) <= r {
		c.rounds = append(c.rounds, RoundCounters{})
	}
	return &c.rounds[r]
}

// AddBroadcasts counts n local broadcasts in the given round.
func (c *Collector) AddBroadcasts(round int, n int64) {
	if c == nil || n == 0 {
		return
	}
	c.mu.Lock()
	c.round(round).Broadcasts += n
	c.mu.Unlock()
}

// AddDeliveries counts n per-receiver deliveries in the given round.
func (c *Collector) AddDeliveries(round int, n int64) {
	if c == nil || n == 0 {
		return
	}
	c.mu.Lock()
	c.round(round).Deliveries += n
	c.mu.Unlock()
}

// AddEvidenceEvals counts n commit-rule evidence evaluations in the round
// without recording events; EvidenceEval is the per-evaluation tap.
func (c *Collector) AddEvidenceEvals(round int, n int64) {
	if c == nil || n == 0 {
		return
	}
	c.mu.Lock()
	c.round(round).EvidenceEvals += n
	c.mu.Unlock()
}

// AddCommit counts one first-time decision in the given round.
func (c *Collector) AddCommit(round int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.round(round).Commits++
	c.mu.Unlock()
}

// EvidenceEval counts one commit-rule evidence evaluation about (origin,
// value) at the evaluating node and, when recording, keeps its event.
func (c *Collector) EvidenceEval(round int, node, origin topology.NodeID, value byte) {
	c.AddEvidenceEvals(round, 1)
	if !c.Recording() {
		return
	}
	c.add(etrace.Event{Round: round, Kind: etrace.KindEvidenceEval, Node: node, Origin: origin, Value: value})
}

// add keeps one event. Callers check Recording first.
func (c *Collector) add(ev etrace.Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// copyPath defensively copies a message path: broadcast messages are
// immutable, but the caller's backing slice may be reused after delivery.
func copyPath(path []topology.NodeID) []topology.NodeID {
	if len(path) == 0 {
		return nil
	}
	return append([]topology.NodeID(nil), path...)
}

// Broadcast records one local broadcast of a message. It does not count:
// the engines count broadcasts once per round with AddBroadcasts.
func (c *Collector) Broadcast(round int, from topology.NodeID, msgKind uint8, value byte, origin topology.NodeID, path []topology.NodeID) {
	if !c.Recording() {
		return
	}
	c.add(etrace.Event{Round: round, Kind: etrace.KindBroadcast, Node: from,
		MsgKind: msgKind, Value: value, Origin: origin, Path: copyPath(path)})
}

// Delivery records one per-receiver delivery. It does not count: the
// engines count deliveries once per round with AddDeliveries.
func (c *Collector) Delivery(round int, node, from topology.NodeID, msgKind uint8, value byte, origin topology.NodeID, path []topology.NodeID) {
	if !c.Recording() {
		return
	}
	c.add(etrace.Event{Round: round, Kind: etrace.KindDelivery, Node: node, From: from,
		MsgKind: msgKind, Value: value, Origin: origin, Path: copyPath(path)})
}

// Crash records a node silenced from the given round onward.
func (c *Collector) Crash(round int, node topology.NodeID) {
	if !c.Recording() {
		return
	}
	c.add(etrace.Event{Round: max(round, 0), Kind: etrace.KindCrash, Node: node})
}

// Spoof records a delivery whose attribution diverged from the physical
// transmitter: node received from `from` but ascribed it to `claimed`.
func (c *Collector) Spoof(round int, node, from, claimed topology.NodeID) {
	if !c.Recording() {
		return
	}
	c.add(etrace.Event{Round: round, Kind: etrace.KindSpoof, Node: node, From: from, Claimed: claimed})
}

// Commit records a first-time decision with its justification. It does not
// count: the engines count commits with AddCommit when they observe the
// decision. Cert may be nil if the protocol could not reconstruct one
// (defensive; honest protocols always supply it).
func (c *Collector) Commit(round int, node topology.NodeID, value byte, cert *etrace.Certificate) {
	if !c.Recording() {
		return
	}
	c.add(etrace.Event{Round: round, Kind: etrace.KindCommit, Node: node, Value: value, Cert: cert})
}

// Events returns a copy of everything recorded so far, in record order.
func (c *Collector) Events() []etrace.Event {
	if !c.Recording() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]etrace.Event(nil), c.events...)
}

// Clone returns an independent collector carrying an exact copy of the
// state. A forked engine (sim.Engine.Fork) clones the collector at the
// fork point so the shared execution prefix is counted once per branch,
// exactly as if each branch had simulated the prefix itself. Cloning a nil
// collector returns nil, preserving the "nil discards everything"
// contract.
func (c *Collector) Clone() *Collector {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Collector{
		record: c.record,
		rounds: append([]RoundCounters(nil), c.rounds...),
		events: append([]etrace.Event(nil), c.events...),
	}
}

// Snapshot copies the collector's counts. It is safe to call while taps are
// still firing.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	perRound := make([]RoundCounters, len(c.rounds))
	copy(perRound, c.rounds)
	c.mu.Unlock()
	s := Snapshot{PerRound: perRound}
	for _, rc := range perRound {
		s.Broadcasts += rc.Broadcasts
		s.Deliveries += rc.Deliveries
		s.EvidenceEvals += rc.EvidenceEvals
		s.Commits += rc.Commits
	}
	return s
}
