package protocol

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/etrace"
	"repro/internal/evidence"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// familyTables caches designated-family tables per radius; the table is
// immutable and shared by every process of a run (and across runs).
var familyTables sync.Map // int -> *evidence.FamilyTable

// familyTableFor returns the (cached) designated table for radius r.
func familyTableFor(r int) (*evidence.FamilyTable, error) {
	if v, ok := familyTables.Load(r); ok {
		return v.(*evidence.FamilyTable), nil
	}
	ft, err := evidence.NewFamilyTable(r)
	if err != nil {
		return nil, err
	}
	actual, _ := familyTables.LoadOrStore(r, ft)
	return actual.(*evidence.FamilyTable), nil
}

// bv4Proc is the paper's main protocol (§VI): COMMITTED announcements are
// reported through HEARD chains of up to three relayers; a node reliably
// determines an origin's value by hearing it directly or via t+1 internally
// node-disjoint recorded chains inside one single neighborhood, and commits
// once t+1 reliably-determined committers lie inside one single
// neighborhood. Tolerates t < r(2r+1)/2 in L∞ (Theorem 1).
type bv4Proc struct {
	self   topology.NodeID
	source topology.NodeID
	t      int
	net    *topology.Network
	mode   EvidenceMode
	ft     *evidence.FamilyTable // nil in Exact mode
	spoof  bool                  // §X study: medium does not authenticate senders
	tap    *metrics.Collector    // evaluation counts, events and certificates (nil = off)

	value     byte
	decided   bool
	announced bool

	// store also dedupes COMMITTED by sender and HEARD by (origin, relay
	// path): it records only the first version of each, whatever its
	// value, so later contradictory retransmissions are ignored (§V).
	store *evidence.Store
	// local indexes nodes by node id. It holds only the origins and
	// neighborhood centers the commit rule has touched, so the state grows
	// with the evidence the process hears, not with the network.
	local topology.NodeIndex
	nodes []bv4Node
}

// bv4Node is the commit-rule state of one node.
type bv4Node struct {
	id topology.NodeID
	// determined[v]: the node, as an origin, is reliably determined to
	// have committed v.
	determined [2]bool
	// count[v] counts the determined committers of v in the closed
	// neighborhood centered at the node.
	count [2]int32
}

// newBV4Factory builds indirect-report protocol processes.
func newBV4Factory(p Params) (sim.ProcessFactory, error) {
	net, err := p.torus(BV4)
	if err != nil {
		return nil, err
	}
	mode := p.Mode
	if mode == 0 {
		mode = Designated
	}
	if mode != Designated && mode != Exact {
		return nil, fmt.Errorf("protocol: invalid evidence mode %d", int(mode))
	}
	if net.Metric() != grid.Linf && mode == Designated {
		return nil, fmt.Errorf("protocol: designated mode requires the L∞ metric (constructive families are L∞)")
	}
	var ft *evidence.FamilyTable
	if mode == Designated {
		var err error
		ft, err = familyTableFor(net.Radius())
		if err != nil {
			return nil, err
		}
	}
	return func(id topology.NodeID) sim.Process {
		return &bv4Proc{
			self:   id,
			source: p.Source,
			t:      p.T,
			net:    net,
			mode:   mode,
			ft:     ft,
			spoof:  p.SpoofingPossible,
			tap:    p.Metrics,
			value:  p.Value,
			store:  evidence.NewStore(),
		}
	}, nil
}

// Init implements sim.Process.
func (b *bv4Proc) Init(ctx sim.Context) {
	if b.self == b.source {
		b.decided = true
		b.announced = true
		if b.tap.Recording() {
			b.tap.Commit(ctx.Round(), b.self, b.value,
				&etrace.Certificate{Rule: etrace.RuleSource, Value: b.value})
		}
		ctx.Broadcast(sim.Message{Kind: sim.KindValue, Value: b.value})
	}
}

// Deliver implements sim.Process.
func (b *bv4Proc) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	if m.Value > 1 || namesOutsider(b.net.Size(), b.spoof, m) {
		return
	}
	sender := attributedSender(b.spoof, from, m)
	if sender != from && b.tap.Recording() {
		b.tap.Spoof(ctx.Round(), b.self, from, sender)
	}
	switch m.Kind {
	case sim.KindValue:
		if sender != b.source {
			return
		}
		// Base case: direct neighbors of the source commit immediately;
		// the source's transmission is also its COMMITTED announcement.
		b.acceptCommitted(ctx, sender, m.Value)
		if !b.decided {
			b.commit(ctx, m.Value, b.directCert(sender, m.Value))
		}
	case sim.KindCommitted:
		if m.Origin != sender {
			return // under authentication, spoofing is physically impossible
		}
		b.acceptCommitted(ctx, sender, m.Value)
	case sim.KindHeard:
		b.acceptHeard(ctx, sender, m)
	}
}

// acceptCommitted handles a first-hand commitment announcement.
func (b *bv4Proc) acceptCommitted(ctx sim.Context, committer topology.NodeID, v byte) {
	if !b.store.AddDirect(committer, v) {
		return // first version wins, whatever its value (§V)
	}
	b.onDetermined(ctx, committer, v)
	// Report it: HEARD(self, committer, v), subject to earmarking.
	if b.shouldRelay(committer, []topology.NodeID{b.self}) {
		ctx.Broadcast(sim.Message{
			Kind:   sim.KindHeard,
			Origin: committer,
			Value:  v,
			Path:   []topology.NodeID{b.self},
		})
	}
}

// acceptHeard validates, records, evaluates and possibly re-relays an
// indirect report.
func (b *bv4Proc) acceptHeard(ctx sim.Context, from topology.NodeID, m sim.Message) {
	n := len(m.Path)
	if n < 1 || n > sim.MaxHeardRelays {
		return
	}
	if m.Path[n-1] != from {
		return // the sender must have affixed its own identifier last
	}
	if m.Origin == b.self {
		return // reports about ourselves carry no information
	}
	for i, rel := range m.Path {
		if rel == b.self || rel == m.Origin {
			return // cyclic or self-involving chains are worthless
		}
		for _, prev := range m.Path[:i] {
			if rel == prev {
				return
			}
		}
	}
	if !b.store.Add(evidence.Chain{Origin: m.Origin, Value: m.Value, Relays: m.Path}) {
		return // first version wins, whatever its value (§V)
	}

	// Evaluate reliable determination for this (origin, value).
	if b.isDetermined(ctx.Round(), m.Origin, m.Value) {
		b.onDetermined(ctx, m.Origin, m.Value)
	}

	// Re-relay with our identifier affixed, if the extended chain is still
	// designated (or always, in exact mode) and under the relay cap.
	if n < sim.MaxHeardRelays {
		var extBuf [sim.MaxHeardRelays]topology.NodeID
		ext := append(append(extBuf[:0], m.Path...), b.self)
		if b.shouldRelay(m.Origin, ext) {
			fwd := m.ExtendPath(b.self)
			ctx.Broadcast(fwd)
		}
	}
}

// isDetermined applies the mode's reliable-determination rule.
func (b *bv4Proc) isDetermined(round int, origin topology.NodeID, v byte) bool {
	if i, ok := b.local.Lookup(origin); ok && b.nodes[i].determined[v] {
		return false // already counted; avoid re-evaluation
	}
	b.tap.EvidenceEval(round, b.self, origin, v)
	need := b.t + 1
	if b.mode == Designated {
		return evidence.DeterminedDesignated(b.net, b.ft, b.store, b.self, origin, v, need)
	}
	return evidence.DeterminedExact(b.net, b.store, b.self, origin, v, need)
}

// onDetermined counts a newly reliably-determined committer and applies the
// commit rule: t+1 determined committers of v inside one closed nbd.
func (b *bv4Proc) onDetermined(ctx sim.Context, origin topology.NodeID, v byte) {
	o := b.node(origin)
	if o.determined[v] {
		return
	}
	o.determined[v] = true
	commit := false
	for _, center := range b.net.Closed(origin) {
		c := b.node(center)
		c.count[v]++
		if int(c.count[v]) >= b.t+1 {
			commit = true
		}
	}
	if commit && !b.decided {
		b.commit(ctx, v, b.quorumCert(v))
	}
}

// node returns id's commit-rule state, creating it when absent. The
// pointer is valid until the next call.
func (b *bv4Proc) node(id topology.NodeID) *bv4Node {
	i, added := b.local.Put(id)
	if added {
		b.nodes = append(b.nodes, bv4Node{id: id})
	}
	return &b.nodes[i]
}

// shouldRelay applies the earmarking filter: in exact mode everything under
// the cap is relayed; in designated mode only prefixes of designated paths.
func (b *bv4Proc) shouldRelay(origin topology.NodeID, relays []topology.NodeID) bool {
	if b.mode == Exact {
		return true
	}
	var buf [sim.MaxHeardRelays]grid.Coord
	offs := buf[:len(relays)]
	for i, rel := range relays {
		offs[i] = b.net.Delta(origin, rel)
	}
	return b.ft.ShouldRelay(offs)
}

// commit records the decision and announces it once. cert is nil on
// untraced runs.
func (b *bv4Proc) commit(ctx sim.Context, v byte, cert *etrace.Certificate) {
	b.decided = true
	b.value = v
	if b.tap.Recording() {
		b.tap.Commit(ctx.Round(), b.self, v, cert)
	}
	if !b.announced {
		b.announced = true
		ctx.Broadcast(sim.Message{Kind: sim.KindCommitted, Origin: b.self, Value: v})
	}
}

// directCert builds the base-case certificate: the value was heard
// directly from the designated source. Nil on untraced runs.
func (b *bv4Proc) directCert(sender topology.NodeID, v byte) *etrace.Certificate {
	if !b.tap.Recording() {
		return nil
	}
	return &etrace.Certificate{Rule: etrace.RuleDirect, Value: v, Voters: []topology.NodeID{sender}}
}

// quorumCert reconstructs the §VI commit rule's justification at the
// moment it fired: a closed-neighborhood center holding ≥ t+1 reliably-
// determined committers of v, each backed by a direct COMMITTED reception
// or by its confirmed disjoint chain family. Nil on untraced runs.
func (b *bv4Proc) quorumCert(v byte) *etrace.Certificate {
	if !b.tap.Recording() {
		return nil
	}
	need := b.t + 1
	center := topology.None
	for _, c := range b.nodes {
		if int(c.count[v]) >= need && (center == topology.None || c.id < center) {
			center = c.id // smallest qualifying center, deterministically
		}
	}
	if center == topology.None {
		return nil // defensive: the caller observed the quorum fire
	}
	var origins []topology.NodeID
	for _, o := range b.nodes {
		if o.determined[v] && b.net.WithinClosed(center, o.id) {
			origins = append(origins, o.id)
		}
	}
	slices.Sort(origins)
	cert := &etrace.Certificate{
		Rule: etrace.RuleQuorum, Value: v,
		Center: center, HasCenter: true,
		Evidence: make([]etrace.Evidence, 0, len(origins)),
	}
	for _, origin := range origins {
		item := etrace.Evidence{Origin: origin}
		if b.store.HasDirect(origin, v) {
			item.Direct = true
		} else {
			for _, c := range b.determinedChains(origin, v, need) {
				item.Chains = append(item.Chains, append([]topology.NodeID(nil), c.Relays...))
			}
		}
		cert.Evidence = append(cert.Evidence, item)
	}
	return cert
}

// determinedChains returns the explicit chain witness that reliably
// determined (origin, v) under the process's evidence mode. Evidence only
// accumulates, so the witness exists whenever determination fired.
func (b *bv4Proc) determinedChains(origin topology.NodeID, v byte, need int) []evidence.Chain {
	if b.mode == Designated {
		return b.ft.ConfirmedChainList(b.net, b.store, b.self, origin, v)
	}
	chains, _, _ := evidence.DeterminedExactWitness(b.net, b.store, b.self, origin, v, need)
	return chains
}

// Decided implements sim.Process.
func (b *bv4Proc) Decided() (byte, bool) {
	if !b.decided {
		return 0, false
	}
	return b.value, true
}

var _ sim.Process = (*bv4Proc)(nil)
