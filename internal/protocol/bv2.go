package protocol

import (
	"repro/internal/etrace"
	"repro/internal/evidence"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// bv2Proc is the simplified two-hop protocol of §VI-B: only the immediate
// neighbors of a node that sent a COMMITTED message send a one-time HEARD
// report of it, so information about a commitment propagates exactly two
// hops. A node commits to v once it holds t+1 report chains for v (direct
// COMMITTED receptions or one-relay HEARD reports) that are collectively
// node-disjoint — including the committing endpoints — and lie inside one
// single closed neighborhood. The threshold matches Theorem 1.
type bv2Proc struct {
	self   topology.NodeID
	source topology.NodeID
	t      int
	net    *topology.Network
	spoof  bool               // §X study: medium does not authenticate senders
	tap    *metrics.Collector // evaluation counts, events and certificates (nil = off)

	value     byte
	decided   bool
	announced bool

	// store also dedupes COMMITTED by sender and HEARD reports by
	// (sender, origin): it records only the first version of each,
	// whatever its value, so later contradictory retransmissions are
	// ignored (§V). A committer is reported exactly when its first
	// COMMITTED is recorded.
	store evidence.Store
}

// newBV2Factory builds two-hop protocol processes, with their stores, from
// slab chunks, and sizes each store from the neighborhood.
func newBV2Factory(p Params) (sim.ProcessFactory, error) {
	net, err := p.torus(BV2)
	if err != nil {
		return nil, err
	}
	origins, chains := storeSizes(net)
	chunk := min(procChunk, net.Size())
	var procs slab[bv2Proc]
	return func(id topology.NodeID) sim.Process {
		b := procs.take(chunk)
		*b = bv2Proc{
			self:   id,
			source: p.Source,
			t:      p.T,
			net:    net,
			spoof:  p.SpoofingPossible,
			tap:    p.Metrics,
			value:  p.Value,
		}
		b.store.Init(origins, chains)
		return b
	}, nil
}

// Init implements sim.Process.
func (b *bv2Proc) Init(ctx sim.Context) {
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
func (b *bv2Proc) Deliver(ctx sim.Context, from topology.NodeID, m sim.Message) {
	if m.Value > 1 || namesOutsider(b.net.Size(), b.spoof, m) {
		return // not a binary broadcast value, or names no node of the network
	}
	sender := attributedSender(b.spoof, from, m)
	if sender != from && b.tap.Recording() {
		b.tap.Spoof(ctx.Round(), b.self, from, sender)
	}
	switch m.Kind {
	case sim.KindValue:
		if sender != b.source {
			return // only the designated source originates values
		}
		// The source's initial transmission doubles as its COMMITTED
		// announcement; its neighbors commit immediately (base case).
		b.acceptCommitted(ctx, sender, m.Value)
		if !b.decided {
			var cert *etrace.Certificate
			if b.tap.Recording() {
				cert = &etrace.Certificate{Rule: etrace.RuleDirect, Value: m.Value,
					Voters: []topology.NodeID{sender}}
			}
			b.commit(ctx, m.Value, cert)
		}
	case sim.KindCommitted:
		if m.Origin != sender {
			return // under authentication, spoofed origins are impossible
		}
		b.acceptCommitted(ctx, sender, m.Value)
	case sim.KindHeard:
		if len(m.Path) != 1 || m.Path[0] != sender {
			return // two-hop protocol: exactly one relay, and it must be the sender
		}
		if m.Origin == sender || m.Origin == b.self {
			return
		}
		if !b.store.Add(m.Origin, m.Value, m.Path) {
			return // first version wins, whatever its value (§V)
		}
		b.tryCommit(ctx, evidence.NewChain(m.Origin, m.Value, m.Path...))
	}
}

// acceptCommitted processes a (first) commitment announcement from a
// neighbor: record it, report it once, and re-evaluate the commit rule.
func (b *bv2Proc) acceptCommitted(ctx sim.Context, committer topology.NodeID, v byte) {
	if !b.store.AddDirect(committer, v) {
		return // first version wins, whatever its value (§V)
	}
	ctx.Broadcast(sim.Message{
		Kind:   sim.KindHeard,
		Origin: committer,
		Value:  v,
		Path:   []topology.NodeID{b.self},
	})
	b.tryCommit(ctx, evidence.NewChain(committer, v))
}

// tryCommit applies the §VI-B commit rule for the value of the newly
// recorded chain, evaluating only neighborhoods that contain it.
func (b *bv2Proc) tryCommit(ctx sim.Context, chain evidence.Chain) {
	if b.decided {
		return
	}
	b.tap.EvidenceEval(ctx.Round(), b.self, chain.Origin, chain.Value)
	if evidence.CommitSingleLevelFocused(b.net, &b.store, b.self, chain.Value, b.t+1, chain) {
		b.commit(ctx, chain.Value, b.chainCert(chain.Value))
	}
}

// chainCert reconstructs the §VI-B justification at the moment the rule
// fired: a neighborhood center and t+1 collectively node-disjoint chains
// for v inside it. Nil on untraced runs.
func (b *bv2Proc) chainCert(v byte) *etrace.Certificate {
	if !b.tap.Recording() {
		return nil
	}
	center, chains, ok := evidence.CommitWitness(b.net, &b.store, b.self, v, b.t+1)
	if !ok {
		return nil // defensive: the focused check just succeeded
	}
	cert := &etrace.Certificate{
		Rule: etrace.RuleDisjointChains, Value: v,
		Center: b.net.IDOf(center), HasCenter: true,
		Evidence: make([]etrace.Evidence, 0, len(chains)),
	}
	for _, c := range chains {
		relays := c.Relays()
		item := etrace.Evidence{Origin: c.Origin, Direct: len(relays) == 0}
		if len(relays) > 0 {
			item.Chains = [][]topology.NodeID{append([]topology.NodeID(nil), relays...)}
		}
		cert.Evidence = append(cert.Evidence, item)
	}
	return cert
}

// commit records the decision and announces it once. cert is nil on
// untraced runs.
func (b *bv2Proc) commit(ctx sim.Context, v byte, cert *etrace.Certificate) {
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

// Decided implements sim.Process.
func (b *bv2Proc) Decided() (byte, bool) {
	if !b.decided {
		return 0, false
	}
	return b.value, true
}

var _ sim.Process = (*bv2Proc)(nil)
