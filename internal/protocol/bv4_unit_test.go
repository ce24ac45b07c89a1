package protocol

import (
	"testing"

	"repro/internal/evidence"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/topology"
)

// captureCtx records broadcasts for white-box process tests.
type captureCtx struct {
	self topology.NodeID
	out  []sim.Message
}

func (c *captureCtx) Self() topology.NodeID   { return c.self }
func (c *captureCtx) Round() int              { return 1 }
func (c *captureCtx) Broadcast(m sim.Message) { c.out = append(c.out, m) }

// newBV4 builds a single bv4 process for white-box testing.
func newBV4(t *testing.T, net *topology.Network, self, source topology.NodeID, tVal int, mode EvidenceMode) *bv4Proc {
	t.Helper()
	factory, err := newBV4Factory(Params{Net: net, Source: source, Value: 1, T: tVal, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return factory(self).(*bv4Proc)
}

func TestBV4RejectsMalformedHeard(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	self := net.IDOf(grid.C(4, 4))
	src := net.IDOf(grid.C(0, 0))
	origin := net.IDOf(grid.C(6, 4))
	relay := net.IDOf(grid.C(5, 4))
	outside := topology.NodeID(net.Size() + 3)

	cases := []struct {
		name  string
		m     sim.Message
		from  topology.NodeID
		spoof bool // the receiver runs with SpoofingPossible
	}{
		{"empty path", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1}, relay, false},
		{"oversized path", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1,
			Path: []topology.NodeID{1, 2, 3, 4}}, 4, false},
		{"last relay is not the sender", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1,
			Path: []topology.NodeID{relay}}, net.IDOf(grid.C(3, 4)), false},
		{"origin inside the path", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1,
			Path: []topology.NodeID{origin, relay}}, relay, false},
		{"receiver inside the path", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1,
			Path: []topology.NodeID{self, relay}}, relay, false},
		{"duplicate relay", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1,
			Path: []topology.NodeID{relay, relay}}, relay, false},
		{"report about the receiver itself", sim.Message{Kind: sim.KindHeard, Origin: self, Value: 1,
			Path: []topology.NodeID{relay}}, relay, false},
		{"non-binary value", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 7,
			Path: []topology.NodeID{relay}}, relay, false},
		{"origin is None", sim.Message{Kind: sim.KindHeard, Origin: topology.None, Value: 1,
			Path: []topology.NodeID{relay}}, relay, false},
		{"origin outside the network", sim.Message{Kind: sim.KindHeard, Origin: outside, Value: 1,
			Path: []topology.NodeID{relay}}, relay, false},
		{"relay outside the network", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1,
			Path: []topology.NodeID{outside, relay}}, relay, false},
		{"spoofed sender outside the network", sim.Message{Kind: sim.KindCommitted, Origin: outside, Value: 1,
			Spoofed: true, Claimed: outside}, relay, true},
		{"spoofed relay outside the network", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1,
			Path: []topology.NodeID{outside}, Spoofed: true, Claimed: outside}, relay, true},
	}
	for _, tc := range cases {
		factory, err := newBV4Factory(Params{Net: net, Source: src, Value: 1, T: 1, Mode: Exact, SpoofingPossible: tc.spoof})
		if err != nil {
			t.Fatal(err)
		}
		p := factory(self).(*bv4Proc)
		ctx := &captureCtx{self: self}
		p.Deliver(ctx, tc.from, tc.m)
		if got := len(p.store.ValueChains(0)) + len(p.store.ValueChains(1)); got != 0 {
			t.Errorf("%s: malformed message was recorded", tc.name)
		}
		if p.local.Len() != 0 {
			t.Errorf("%s: malformed message changed the commit state", tc.name)
		}
		if len(ctx.out) != 0 {
			t.Errorf("%s: malformed message was relayed: %v", tc.name, ctx.out)
		}
	}
}

func TestBV4AcceptsValidHeardAndRelays(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	self := net.IDOf(grid.C(4, 4))
	src := net.IDOf(grid.C(0, 0))
	p := newBV4(t, net, self, src, 1, Exact)
	ctx := &captureCtx{self: self}
	origin := net.IDOf(grid.C(6, 4))
	relay := net.IDOf(grid.C(5, 4))
	p.Deliver(ctx, relay, sim.Message{
		Kind: sim.KindHeard, Origin: origin, Value: 1, Path: []topology.NodeID{relay},
	})
	if len(p.store.Chains(origin, 1)) != 1 {
		t.Fatal("valid chain not recorded")
	}
	// Exact mode relays everything under the cap, with self affixed.
	if len(ctx.out) != 1 {
		t.Fatalf("expected 1 relay, got %d", len(ctx.out))
	}
	fwd := ctx.out[0]
	if fwd.Kind != sim.KindHeard || len(fwd.Path) != 2 || fwd.Path[1] != self {
		t.Errorf("bad relay %v", fwd)
	}
	// A duplicate logical message (same origin+path, flipped value) is
	// ignored: first version wins (§V).
	before := len(ctx.out)
	p.Deliver(ctx, relay, sim.Message{
		Kind: sim.KindHeard, Origin: origin, Value: 0, Path: []topology.NodeID{relay},
	})
	if len(p.store.Chains(origin, 0)) != 0 {
		t.Error("contradictory retransmission must be ignored")
	}
	if len(ctx.out) != before {
		t.Error("contradictory retransmission must not be relayed")
	}
}

func TestBV4MaxLengthChainRecordedNotRelayed(t *testing.T) {
	net := testNet(t, 11, 11, 1)
	self := net.IDOf(grid.C(5, 5))
	src := net.IDOf(grid.C(0, 0))
	p := newBV4(t, net, self, src, 1, Exact)
	ctx := &captureCtx{self: self}
	origin := net.IDOf(grid.C(9, 5))
	path := []topology.NodeID{
		net.IDOf(grid.C(8, 5)), net.IDOf(grid.C(7, 5)), net.IDOf(grid.C(6, 5)),
	}
	p.Deliver(ctx, path[2], sim.Message{
		Kind: sim.KindHeard, Origin: origin, Value: 1, Path: path,
	})
	if len(p.store.Chains(origin, 1)) != 1 {
		t.Error("three-relay chain must be recorded")
	}
	if len(ctx.out) != 0 {
		t.Error("three-relay chain must not be re-relayed (fourth hop records only)")
	}
}

func TestBV4CommittedSpoofDropped(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	self := net.IDOf(grid.C(4, 4))
	src := net.IDOf(grid.C(0, 0))
	p := newBV4(t, net, self, src, 1, Designated)
	ctx := &captureCtx{self: self}
	liar := net.IDOf(grid.C(5, 4))
	victim := net.IDOf(grid.C(3, 4))
	// COMMITTED whose Origin differs from the sender: physically impossible
	// under the authenticated medium; must be dropped.
	p.Deliver(ctx, liar, sim.Message{Kind: sim.KindCommitted, Origin: victim, Value: 0})
	if p.store.HasDirect(victim, 0) || p.store.HasDirect(liar, 0) {
		t.Error("spoofed COMMITTED must be dropped entirely")
	}
}

func TestBV4FirstCommittedWins(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	self := net.IDOf(grid.C(4, 4))
	src := net.IDOf(grid.C(0, 0))
	p := newBV4(t, net, self, src, 1, Designated)
	ctx := &captureCtx{self: self}
	n := net.IDOf(grid.C(5, 4))
	p.Deliver(ctx, n, sim.Message{Kind: sim.KindCommitted, Origin: n, Value: 1})
	p.Deliver(ctx, n, sim.Message{Kind: sim.KindCommitted, Origin: n, Value: 0})
	if !p.store.HasDirect(n, 1) {
		t.Error("first announcement lost")
	}
	if p.store.HasDirect(n, 0) {
		t.Error("contradictory announcement accepted (§V violation)")
	}
}

func TestBV4SourceValueCommitsNeighbor(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	src := net.IDOf(grid.C(0, 0))
	nb := net.IDOf(grid.C(1, 0))
	p := newBV4(t, net, nb, src, 1, Designated)
	ctx := &captureCtx{self: nb}
	p.Deliver(ctx, src, sim.Message{Kind: sim.KindValue, Value: 1})
	if v, ok := p.Decided(); !ok || v != 1 {
		t.Fatalf("source neighbor must commit immediately: %v %v", v, ok)
	}
	// It must announce its own commitment exactly once.
	committed := 0
	for _, m := range ctx.out {
		if m.Kind == sim.KindCommitted && m.Origin == nb {
			committed++
		}
	}
	if committed != 1 {
		t.Errorf("neighbor announced %d times", committed)
	}
	// VALUE from a non-source node is ignored.
	other := net.IDOf(grid.C(2, 0))
	p2 := newBV4(t, net, nb, src, 1, Designated)
	ctx2 := &captureCtx{self: nb}
	p2.Deliver(ctx2, other, sim.Message{Kind: sim.KindValue, Value: 0})
	if _, ok := p2.Decided(); ok {
		t.Error("VALUE from a non-source must not commit")
	}
}

// TestHeardKeyDistinguishes pins the identity HEARD dedup keys on: the
// store's value-blind insert of (origin, relay path). A chain recorded
// under either value makes the same origin and path a repeat; any other
// origin or path is new.
func TestHeardKeyDistinguishes(t *testing.T) {
	s := evidence.NewStore()
	s.Add(1, 1, []topology.NodeID{2, 3})
	s.Add(4, 0, []topology.NodeID{5})
	for _, v := range []byte{0, 1} {
		if s.Add(1, v, []topology.NodeID{2, 3}) ||
			s.Add(4, v, []topology.NodeID{5}) {
			t.Errorf("identical keys must match under value %d", v)
		}
	}
	variants := []struct {
		origin topology.NodeID
		path   []topology.NodeID
	}{
		{2, []topology.NodeID{2, 3}},
		{1, []topology.NodeID{3, 2}},
		{1, []topology.NodeID{2}},
		{1, nil},
		{4, []topology.NodeID{5, 6}},
	}
	for i, v := range variants {
		if !s.Add(v.origin, 1, v.path) {
			t.Errorf("variant %d collides", i)
		}
	}
}
