package rbcast

// Public execution-trace surface: typed events mirroring internal/etrace
// (recorded by the run's internal/metrics collector when Config.Trace is set),
// the commit Certificate, and Explain — the human-readable answer to "why
// did node (x,y) commit v at round k". Encoding lives in encode.go
// (EncodeTrace/DecodeTrace, JSONL).

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/etrace"
	"repro/internal/sim"
	"repro/internal/topology"
)

// EventKind discriminates trace event types.
type EventKind int

const (
	// EventBroadcast is one local broadcast of a message by a node. With
	// Config.Retransmit k it stands for the k transmissions that
	// Result.Broadcasts counts.
	EventBroadcast EventKind = iota + 1
	// EventDelivery is one per-receiver message delivery.
	EventDelivery
	// EventEvidenceEval is one commit-rule evidence evaluation: a BV4 or
	// BV2 disjoint-path check or a Bracha quorum re-check.
	EventEvidenceEval
	// EventCrash marks a node silenced by the crash adversary; the
	// event's Round is its first silent round.
	EventCrash
	// EventSpoof marks a delivery attributed to a claimed identity
	// different from the physical transmitter (§X).
	EventSpoof
	// EventCommit is a first-time decision carrying its Certificate.
	EventCommit
)

// eventKindNames is EventKind's name table.
var eventKindNames = enumTable[EventKind, struct{}]{"EventKind", "event kind", []enumEntry[struct{}]{
	{name: "broadcast"},
	{name: "delivery"},
	{name: "evidence-eval"},
	{name: "crash"},
	{name: "spoof"},
	{name: "commit"},
}}

// String names the kind.
func (k EventKind) String() string { return eventKindNames.name(k) }

// MarshalText encodes the kind's name. The zero value encodes as "".
func (k EventKind) MarshalText() ([]byte, error) { return eventKindNames.marshal(k) }

// UnmarshalText decodes an event kind name; "" restores the zero value.
func (k *EventKind) UnmarshalText(text []byte) error { return eventKindNames.unmarshal(text, k) }

// CommitRule identifies which commit rule a certificate satisfied.
type CommitRule int

const (
	// RuleSource: the node is the designated source.
	RuleSource CommitRule = iota + 1
	// RuleDirect: the value was heard directly from the source.
	RuleDirect
	// RuleQuorum: BV4's rule — t+1 reliably-determined committers inside
	// one closed neighborhood (§VI).
	RuleQuorum
	// RuleDisjointChains: BV2's rule — t+1 collectively node-disjoint
	// chains inside one closed neighborhood (§VI-B).
	RuleDisjointChains
	// RuleVotes: CPA's rule — t+1 distinct neighbor announcements (§IX).
	RuleVotes
	// RuleFlood: crash-stop flooding — commit on any reception (§VII).
	RuleFlood
	// RuleReadyQuorum: the Bracha family's delivery rule — 2T+1 distinct
	// READY endorsements of one value, optionally backed by the N−T ECHO
	// quorum that triggered the node's own READY.
	RuleReadyQuorum
)

// commitRuleNames is CommitRule's name table.
var commitRuleNames = enumTable[CommitRule, struct{}]{"CommitRule", "commit rule", []enumEntry[struct{}]{
	{name: "source"},
	{name: "direct"},
	{name: "quorum"},
	{name: "disjoint-chains"},
	{name: "votes"},
	{name: "flood"},
	{name: "ready-quorum"},
}}

// String names the rule.
func (r CommitRule) String() string { return commitRuleNames.name(r) }

// MarshalText encodes the rule's name. The zero value encodes as "".
func (r CommitRule) MarshalText() ([]byte, error) { return commitRuleNames.marshal(r) }

// UnmarshalText decodes a commit rule name; "" restores the zero value.
func (r *CommitRule) UnmarshalText(text []byte) error { return commitRuleNames.unmarshal(text, r) }

// TraceMessage is the protocol message carried by a broadcast or delivery
// event, in the paper's vocabulary.
type TraceMessage struct {
	// Kind is the message type: "VALUE", "COMMITTED" or "HEARD".
	Kind string `json:"kind"`
	// Value is the binary broadcast value.
	Value byte `json:"value,omitempty"`
	// Origin is the committing node of a COMMITTED/HEARD message.
	Origin *Node `json:"origin,omitempty"`
	// Path lists a HEARD report's relayers, origin-side first.
	Path []Node `json:"path,omitempty"`
}

// TraceEvidence is one origin's contribution to a certificate.
type TraceEvidence struct {
	// Origin is the committer the evidence is about.
	Origin Node `json:"origin"`
	// Direct reports the origin's COMMITTED was heard on the channel
	// itself (unforgeable — no chains needed).
	Direct bool `json:"direct,omitempty"`
	// Chains lists the confirming relay sequences, origin-side first.
	Chains [][]Node `json:"chains,omitempty"`
}

// Certificate is the recorded justification of one commit. Population
// depends on Rule: Center for the neighborhood rules (quorum,
// disjoint-chains), Voters for direct/votes/flood, Evidence for the
// chain-based rules.
type Certificate struct {
	// Rule is the satisfied commit rule.
	Rule CommitRule `json:"rule"`
	// Value is the committed value.
	Value byte `json:"value,omitempty"`
	// Center is the closed-neighborhood center the rule fired at.
	Center *Node `json:"center,omitempty"`
	// Voters lists the distinct attributed senders the rule counted (for
	// ready-quorum: the READY endorsers).
	Voters []Node `json:"voters,omitempty"`
	// Evidence lists per-origin chain evidence, in origin-id order.
	Evidence []TraceEvidence `json:"evidence,omitempty"`
	// Echoes lists the N−T distinct ECHO endorsers whose quorum triggered
	// the committing node's own READY (ready-quorum only; empty when that
	// READY came from T+1 READY amplification instead).
	Echoes []Node `json:"echoes,omitempty"`
}

// TraceEvent is one recorded execution event. Round and Kind are always
// set; the remaining fields depend on Kind (see EventKind).
type TraceEvent struct {
	// Round is the engine round (crash events: the first silent round).
	Round int `json:"round"`
	// Kind discriminates the event.
	Kind EventKind `json:"kind"`
	// Node is the acting node: transmitter (broadcast), receiver
	// (delivery, spoof), evaluator, crashed node, or committer.
	Node Node `json:"node"`
	// From is the physical transmitter (delivery, spoof).
	From *Node `json:"from,omitempty"`
	// Claimed is the spoofed identity the receiver attributed (spoof).
	Claimed *Node `json:"claimed,omitempty"`
	// Value is the evaluated or committed value (evidence-eval, commit).
	Value byte `json:"value,omitempty"`
	// Origin is the committer an evidence evaluation is about.
	Origin *Node `json:"origin,omitempty"`
	// Message is the carried protocol message (broadcast, delivery).
	Message *TraceMessage `json:"message,omitempty"`
	// Certificate is the commit justification (commit events).
	Certificate *Certificate `json:"certificate,omitempty"`
}

// newTraceEvents converts recorded internal events to the public form,
// labeling nodes through topology.Graph.Label (grid coordinates on the
// torus, (id, 0) elsewhere).
func newTraceEvents(g topology.Graph, events []etrace.Event) []TraceEvent {
	if len(events) == 0 {
		return nil
	}
	nodeOf := func(id topology.NodeID) Node {
		x, y := g.Label(id)
		return Node{X: x, Y: y}
	}
	nodePtr := func(id topology.NodeID) *Node {
		n := nodeOf(id)
		return &n
	}
	out := make([]TraceEvent, len(events))
	for i, ev := range events {
		pe := TraceEvent{Round: ev.Round, Node: nodeOf(ev.Node)}
		switch ev.Kind {
		case etrace.KindBroadcast, etrace.KindDelivery:
			pe.Kind = EventBroadcast
			if ev.Kind == etrace.KindDelivery {
				pe.Kind = EventDelivery
				pe.From = nodePtr(ev.From)
			}
			msg := &TraceMessage{Kind: sim.Kind(ev.MsgKind).String(), Value: ev.Value}
			if sim.Kind(ev.MsgKind) != sim.KindValue {
				msg.Origin = nodePtr(ev.Origin)
			}
			if len(ev.Path) > 0 {
				msg.Path = make([]Node, len(ev.Path))
				for j, id := range ev.Path {
					msg.Path[j] = nodeOf(id)
				}
			}
			pe.Message = msg
		case etrace.KindEvidenceEval:
			pe.Kind = EventEvidenceEval
			pe.Value = ev.Value
			pe.Origin = nodePtr(ev.Origin)
		case etrace.KindCrash:
			pe.Kind = EventCrash
		case etrace.KindSpoof:
			pe.Kind = EventSpoof
			pe.From = nodePtr(ev.From)
			pe.Claimed = nodePtr(ev.Claimed)
		case etrace.KindCommit:
			pe.Kind = EventCommit
			pe.Value = ev.Value
			pe.Certificate = newCertificate(g, ev.Cert)
		}
		out[i] = pe
	}
	return out
}

// newCertificate converts an internal certificate.
func newCertificate(g topology.Graph, c *etrace.Certificate) *Certificate {
	if c == nil {
		return nil
	}
	nodeOf := func(id topology.NodeID) Node {
		x, y := g.Label(id)
		return Node{X: x, Y: y}
	}
	cert := &Certificate{Rule: CommitRule(c.Rule), Value: c.Value}
	if c.HasCenter {
		n := nodeOf(c.Center)
		cert.Center = &n
	}
	if len(c.Voters) > 0 {
		cert.Voters = make([]Node, len(c.Voters))
		for i, id := range c.Voters {
			cert.Voters[i] = nodeOf(id)
		}
	}
	if len(c.Echoes) > 0 {
		cert.Echoes = make([]Node, len(c.Echoes))
		for i, id := range c.Echoes {
			cert.Echoes[i] = nodeOf(id)
		}
	}
	if len(c.Evidence) > 0 {
		cert.Evidence = make([]TraceEvidence, len(c.Evidence))
		for i, e := range c.Evidence {
			item := TraceEvidence{Origin: nodeOf(e.Origin), Direct: e.Direct}
			if len(e.Chains) > 0 {
				item.Chains = make([][]Node, len(e.Chains))
				for j, relays := range e.Chains {
					chain := make([]Node, len(relays))
					for k, id := range relays {
						chain[k] = nodeOf(id)
					}
					item.Chains[j] = chain
				}
			}
			cert.Evidence[i] = item
		}
	}
	return cert
}

// CommitCertificate returns the certificate the trace recorded for the
// node's commit, or nil when the node never committed or the run was not
// traced (Config.Trace unset).
func (r Result) CommitCertificate(node Node) *Certificate {
	for i := range r.Trace {
		ev := &r.Trace[i]
		if ev.Kind == EventCommit && ev.Node == node {
			return ev.Certificate
		}
	}
	return nil
}

// Explain reconstructs a human-readable justification of the node's
// outcome from the result's trace: which commit rule fired, at what round,
// and the exact evidence (vote set, disjoint chain family, or provenance)
// that satisfied it. The result must come from a traced run (Config.Trace
// set); otherwise Explain returns an error. A node that never committed is
// explained, not an error.
func Explain(res Result, node Node) (string, error) {
	if len(res.Trace) == 0 {
		return "", fmt.Errorf("rbcast: result carries no trace — run with Config.Trace set")
	}
	if _, known := res.Decisions[node]; !known {
		return "", fmt.Errorf("rbcast: node %v is not part of the run's network", node)
	}
	crashed := -1
	for i := range res.Trace {
		ev := &res.Trace[i]
		if ev.Node != node {
			continue
		}
		switch ev.Kind {
		case EventCommit:
			return explainCommit(ev), nil
		case EventCrash:
			crashed = ev.Round
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "node %v never committed", node)
	switch {
	case crashed >= 0:
		fmt.Fprintf(&b, " (it crashed at round %d before committing)", crashed)
	case slices.Contains(res.Faulty, node):
		b.WriteString(" (it is faulty: adversarial processes do not decide)")
	}
	b.WriteString(".\n")
	return b.String(), nil
}

// explainCommit renders one commit event's justification.
func explainCommit(ev *TraceEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %v committed value %d at round %d", ev.Node, ev.Value, ev.Round)
	cert := ev.Certificate
	if cert == nil {
		b.WriteString(" (no certificate was recorded).\n")
		return b.String()
	}
	fmt.Fprintf(&b, " by rule %q.\n", cert.Rule)
	switch cert.Rule {
	case RuleSource:
		b.WriteString("  It is the designated source: it commits to its own input by fiat.\n")
	case RuleDirect:
		fmt.Fprintf(&b, "  It heard the value directly from the source %v — the base case of the induction.\n",
			voterList(cert.Voters))
	case RuleFlood:
		fmt.Fprintf(&b, "  Crash-stop flooding: it received the value from %v and committed on first reception (§VII).\n",
			voterList(cert.Voters))
	case RuleVotes:
		fmt.Fprintf(&b, "  %d distinct neighbors announced value %d — a t+1 vote quorum (§IX):\n",
			len(cert.Voters), cert.Value)
		for _, v := range cert.Voters {
			fmt.Fprintf(&b, "    voter %v\n", v)
		}
	case RuleQuorum:
		fmt.Fprintf(&b, "  %d reliably-determined committers of value %d lie inside the closed neighborhood centered at %v (§VI):\n",
			len(cert.Evidence), cert.Value, centerName(cert.Center))
		writeEvidence(&b, cert.Evidence)
	case RuleDisjointChains:
		fmt.Fprintf(&b, "  %d collectively node-disjoint report chains for value %d lie inside the closed neighborhood centered at %v (§VI-B):\n",
			len(cert.Evidence), cert.Value, centerName(cert.Center))
		writeEvidence(&b, cert.Evidence)
	case RuleReadyQuorum:
		fmt.Fprintf(&b, "  %d distinct nodes announced READY for value %d — a 2f+1 delivery quorum (Bracha):\n",
			len(cert.Voters), cert.Value)
		for _, v := range cert.Voters {
			fmt.Fprintf(&b, "    ready %v\n", v)
		}
		if len(cert.Echoes) > 0 {
			fmt.Fprintf(&b, "  its own READY was triggered by an N−f ECHO quorum of %d distinct endorsers:\n",
				len(cert.Echoes))
			for _, e := range cert.Echoes {
				fmt.Fprintf(&b, "    echo %v\n", e)
			}
		} else {
			b.WriteString("  its own READY (if any) came from f+1 READY amplification, not an ECHO quorum.\n")
		}
	default:
		b.WriteString("  (unknown rule.)\n")
	}
	return b.String()
}

// writeEvidence renders per-origin evidence lines.
func writeEvidence(b *strings.Builder, evs []TraceEvidence) {
	for _, e := range evs {
		if e.Direct {
			fmt.Fprintf(b, "    committer %v: COMMITTED heard directly (unforgeable)\n", e.Origin)
			continue
		}
		fmt.Fprintf(b, "    committer %v: %d confirmed disjoint chains\n", e.Origin, len(e.Chains))
		for _, chain := range e.Chains {
			parts := make([]string, len(chain))
			for i, n := range chain {
				parts[i] = n.String()
			}
			fmt.Fprintf(b, "      via %s\n", strings.Join(parts, " → "))
		}
	}
}

// voterList renders a voter slice compactly.
func voterList(voters []Node) string {
	if len(voters) == 0 {
		return "(unrecorded)"
	}
	parts := make([]string, len(voters))
	for i, v := range voters {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}

// centerName renders an optional neighborhood center.
func centerName(c *Node) string {
	if c == nil {
		return "(unrecorded)"
	}
	return c.String()
}
