package etrace

import "repro/internal/topology"

// Kind discriminates recorded event types.
type Kind uint8

const (
	// KindBroadcast is one local broadcast of a message by a node. With a
	// Retransmit count k it stands for the k transmissions the engines
	// count.
	KindBroadcast Kind = iota + 1
	// KindDelivery is one per-receiver message delivery.
	KindDelivery
	// KindEvidenceEval is one commit-rule evidence evaluation by an
	// honest process: a BV4 or BV2 disjoint-path check or a Bracha quorum
	// re-check.
	KindEvidenceEval
	// KindCrash marks a node silenced by the crash-stop adversary; Round
	// is its first silent round.
	KindCrash
	// KindSpoof marks a delivery whose receiver attributed the message to
	// a claimed identity different from the physical transmitter (§X).
	KindSpoof
	// KindCommit is a first-time decision, carrying its Certificate.
	KindCommit
)

// Rule identifies which commit rule a certificate satisfied.
type Rule uint8

const (
	// RuleSource: the node is the designated source and commits by fiat.
	RuleSource Rule = iota + 1
	// RuleDirect: the node heard the value directly from the source
	// (base case of every protocol).
	RuleDirect
	// RuleQuorum: BV4's commit rule — t+1 reliably-determined committers
	// inside one closed neighborhood (§VI).
	RuleQuorum
	// RuleDisjointChains: BV2's commit rule — t+1 collectively
	// node-disjoint chains inside one closed neighborhood (§VI-B).
	RuleDisjointChains
	// RuleVotes: CPA's commit rule — t+1 distinct neighbor announcements
	// of the same value (§IX).
	RuleVotes
	// RuleFlood: crash-stop flooding — commit on any reception (§VII).
	RuleFlood
	// RuleReadyQuorum: Bracha's delivery rule — 2f+1 distinct READY
	// endorsements of one value, optionally backed by the N−f ECHO quorum
	// that triggered the node's own READY.
	RuleReadyQuorum
)

// Evidence is one origin's contribution to a certificate: either a direct
// COMMITTED reception (unforgeable) or the confirmed relay chains that
// reliably determined it.
type Evidence struct {
	// Origin is the committer the evidence is about.
	Origin topology.NodeID
	// Direct reports the origin's COMMITTED was heard on the channel
	// itself; Chains is empty then.
	Direct bool
	// Chains lists the relay sequences (origin-side first) of the
	// confirming recorded chains.
	Chains [][]topology.NodeID
}

// Certificate is the recorded justification of one commit. Which fields
// are populated depends on Rule: Center for the neighborhood rules
// (RuleQuorum, RuleDisjointChains), Voters for RuleDirect/RuleVotes/
// RuleFlood, Evidence for the chain-based rules.
type Certificate struct {
	Rule  Rule
	Value byte
	// Center is the closed-neighborhood center the rule fired at
	// (meaningful iff HasCenter).
	Center    topology.NodeID
	HasCenter bool
	// Voters lists the distinct attributed senders whose messages the
	// rule counted (for RuleReadyQuorum: the READY endorsers).
	Voters []topology.NodeID
	// Evidence lists the per-origin chain evidence, in origin-id order.
	Evidence []Evidence
	// Echoes lists the N−f distinct ECHO endorsers whose quorum triggered
	// the committing node's own READY (RuleReadyQuorum only; empty when
	// the READY came from f+1 READY amplification instead).
	Echoes []topology.NodeID
}

// Event is one recorded engine or protocol event. Which fields are
// meaningful depends on Kind; Round and Node are always set.
type Event struct {
	Round int
	Kind  Kind
	// Node is the acting node: the transmitter of a broadcast, the
	// receiver of a delivery/spoof, the evaluator, the crashed node, or
	// the committer.
	Node topology.NodeID
	// From is the physical transmitter (delivery, spoof).
	From topology.NodeID
	// MsgKind/Value/Origin/Path mirror the sim.Message of a broadcast or
	// delivery (MsgKind is the raw sim.Kind; etrace cannot import sim).
	// Value doubles as the evaluated/committed value for
	// evidence-eval/commit events.
	MsgKind uint8
	Value   byte
	Origin  topology.NodeID
	Path    []topology.NodeID
	// Claimed is the spoofed identity the receiver attributed (spoof).
	Claimed topology.NodeID
	// Cert is the commit justification (commit events only).
	Cert *Certificate
}
