package sim

import (
	"fmt"
	"strings"

	"repro/internal/topology"
)

// Kind discriminates the protocol message types used across the paper's
// protocols. The engine itself does not interpret kinds.
type Kind uint8

const (
	// KindValue carries the bare broadcast value: the source's initial
	// transmission and the single relay of the crash-stop flooding
	// protocol (§VII) and of the simple protocol's announcements.
	KindValue Kind = iota + 1
	// KindCommitted is the one-time COMMITTED(i, v) announcement (§VI).
	KindCommitted
	// KindHeard is an indirect report HEARD(jk, ..., j1, i, v): the
	// relayer affixes its identifier so the full relay path is carried in
	// the message (§VI).
	KindHeard
	// KindEcho is the ECHO(v) endorsement of Bracha's reliable broadcast:
	// a node's one-time attestation that it accepted the source's VAL.
	// Origin names the endorsing node (the "signer" of the authenticated
	// variant).
	KindEcho
	// KindReady is the READY(v) endorsement of Bracha's reliable
	// broadcast, sent on an N−f ECHO quorum or f+1 READY amplification.
	// Origin names the endorsing node.
	KindReady
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindValue:
		return "VALUE"
	case KindCommitted:
		return "COMMITTED"
	case KindHeard:
		return "HEARD"
	case KindEcho:
		return "ECHO"
	case KindReady:
		return "READY"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Audience restricts which neighbors a broadcast reaches. The radio medium
// guarantees every neighbor hears every local broadcast; a restricted
// audience is therefore a deliberate physical-layer violation (directional
// transmission), available only to adversarial processes in the spirit of
// the §X what-ifs — the Equivocator strategy shows different values to
// different receiver partitions with it. Honest processes never set it; the
// zero value (AudienceAll) preserves the medium's guarantee exactly.
type Audience uint8

const (
	// AudienceAll delivers to every neighbor — the radio guarantee.
	AudienceAll Audience = iota
	// AudienceEven delivers only to even-id neighbors.
	AudienceEven
	// AudienceOdd delivers only to odd-id neighbors.
	AudienceOdd
)

// Includes reports whether a receiver is inside the audience.
func (a Audience) Includes(id topology.NodeID) bool {
	switch a {
	case AudienceEven:
		return id%2 == 0
	case AudienceOdd:
		return id%2 != 0
	default:
		return true
	}
}

// MaxHeardRelays caps the relay list of a transmitted HEARD report. The
// protocol of §VI propagates a COMMITTED announcement through at most three
// relayers (the fourth-hop receiver records but does not re-propagate), so
// no transmitted message carries more than three path entries.
const MaxHeardRelays = 3

// Message is a local-broadcast payload. Messages are immutable once
// broadcast: the engine delivers the same value to every neighbor, and
// receivers must not mutate Path (extend it with ExtendPath instead).
type Message struct {
	Kind   Kind
	Value  byte
	Origin topology.NodeID // committing node for COMMITTED/HEARD reports
	// Path lists the relayers of a HEARD report in order from the first
	// relay (the node that heard COMMITTED directly) to the last. Empty
	// for other kinds.
	Path []topology.NodeID
	// Instance tags the message with a broadcast-instance id, used when
	// several reliable broadcasts run concurrently (e.g. the agreement
	// layer, where every committee member is the source of its own
	// instance). Single-broadcast runs leave it zero.
	Instance int32
	// Spoofed and Claimed implement the §X sensitivity study: when the
	// medium does not authenticate senders (protocols running with
	// SpoofingPossible), a receiver attributes a Spoofed message to
	// Claimed instead of its physical transmitter. Honest processes never
	// set these; under the paper's assumptions (authentication on) they
	// are ignored entirely.
	Spoofed bool
	Claimed topology.NodeID
	// Audience restricts delivery to a receiver partition — a directional-
	// transmission violation of the radio medium used by the Equivocator
	// strategy. Honest processes leave it zero (AudienceAll).
	Audience Audience
}

// ExtendPath returns a copy of m with relay appended to the path. The
// original message is left untouched, preserving immutability for other
// receivers of the same broadcast.
func (m Message) ExtendPath(relay topology.NodeID) Message {
	p := make([]topology.NodeID, 0, len(m.Path)+1)
	p = append(p, m.Path...)
	p = append(p, relay)
	m.Path = p
	return m
}

// String renders the message in the paper's notation.
func (m Message) String() string {
	switch m.Kind {
	case KindValue:
		return fmt.Sprintf("VALUE(%d)", m.Value)
	case KindCommitted:
		return fmt.Sprintf("COMMITTED(%d,%d)", m.Origin, m.Value)
	case KindHeard:
		parts := make([]string, 0, len(m.Path)+2)
		for i := len(m.Path) - 1; i >= 0; i-- {
			parts = append(parts, fmt.Sprint(m.Path[i]))
		}
		parts = append(parts, fmt.Sprint(m.Origin), fmt.Sprint(m.Value))
		return "HEARD(" + strings.Join(parts, ",") + ")"
	default:
		return fmt.Sprintf("Message{kind=%d}", m.Kind)
	}
}
