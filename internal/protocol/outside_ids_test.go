package protocol

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/topology"
)

// outsideIDCase is one message naming a node id outside the network,
// delivered from a genuine neighbor.
type outsideIDCase struct {
	name  string
	m     sim.Message
	spoof bool // the receiver runs with SpoofingPossible
}

func TestBV2RejectsOutsideIDs(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	self := net.IDOf(grid.C(4, 4))
	src := net.IDOf(grid.C(0, 0))
	origin := net.IDOf(grid.C(6, 4))
	relay := net.IDOf(grid.C(5, 4))
	outside := topology.NodeID(net.Size() + 3)
	cases := []outsideIDCase{
		{"origin is None", sim.Message{Kind: sim.KindHeard, Origin: topology.None, Value: 1,
			Path: []topology.NodeID{relay}}, false},
		{"origin outside the network", sim.Message{Kind: sim.KindHeard, Origin: outside, Value: 1,
			Path: []topology.NodeID{relay}}, false},
		{"committer outside the network", sim.Message{Kind: sim.KindCommitted, Origin: outside, Value: 1,
			Spoofed: true, Claimed: outside}, true},
		{"relay outside the network", sim.Message{Kind: sim.KindHeard, Origin: origin, Value: 1,
			Path: []topology.NodeID{outside}, Spoofed: true, Claimed: outside}, true},
	}
	for _, tc := range cases {
		factory, err := newBV2Factory(Params{Net: net, Source: src, Value: 1, T: 1, SpoofingPossible: tc.spoof})
		if err != nil {
			t.Fatal(err)
		}
		p := factory(self).(*bv2Proc)
		ctx := &captureCtx{self: self}
		p.Deliver(ctx, relay, tc.m)
		if got := len(p.store.ValueChains(0)) + len(p.store.ValueChains(1)); got != 0 {
			t.Errorf("%s: message was recorded", tc.name)
		}
		if _, ok := p.Decided(); ok {
			t.Errorf("%s: message changed the commit state", tc.name)
		}
		if len(ctx.out) != 0 {
			t.Errorf("%s: message was relayed: %v", tc.name, ctx.out)
		}
	}
}

func TestBrachaAuthRejectsOutsideIDs(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	self := net.IDOf(grid.C(4, 4))
	src := net.IDOf(grid.C(0, 0))
	signer := net.IDOf(grid.C(6, 4))
	relay := net.IDOf(grid.C(5, 4))
	outside := topology.NodeID(net.Size() + 3)
	cases := []outsideIDCase{
		{"ECHO signer is None", sim.Message{Kind: sim.KindEcho, Origin: topology.None, Value: 1}, false},
		{"ECHO signer outside the network", sim.Message{Kind: sim.KindEcho, Origin: outside, Value: 1}, false},
		{"READY signer outside the network", sim.Message{Kind: sim.KindReady, Origin: outside, Value: 1}, false},
		{"VAL custody relay outside the network", sim.Message{Kind: sim.KindValue, Origin: src, Value: 1,
			Path: []topology.NodeID{outside}}, false},
		{"spoofed sender outside the network", sim.Message{Kind: sim.KindEcho, Origin: signer, Value: 1,
			Spoofed: true, Claimed: outside}, true},
	}
	for _, tc := range cases {
		factory, err := newBrachaFactory(Params{Net: net, Source: src, Value: 1, T: 1, SpoofingPossible: tc.spoof}, BrachaAuth)
		if err != nil {
			t.Fatal(err)
		}
		p := factory(self).(*brachaProc)
		ctx := &captureCtx{self: self}
		p.Deliver(ctx, relay, tc.m)
		for v := range p.echoes {
			if p.echoes[v].n+p.readies[v].n != 0 || p.relayedVal[v] {
				t.Errorf("%s: message changed the tallies", tc.name)
			}
			for k := range p.relayed {
				if p.relayed[k][v].Len() != 0 {
					t.Errorf("%s: message marked a signer relayed", tc.name)
				}
			}
		}
		if p.echoed || p.readied || p.decided {
			t.Errorf("%s: message changed the protocol state", tc.name)
		}
		if len(ctx.out) != 0 {
			t.Errorf("%s: message was relayed: %v", tc.name, ctx.out)
		}
	}
}
