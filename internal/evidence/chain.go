package evidence

import (
	"slices"

	"repro/internal/topology"
)

// Chain is one recorded report at a receiving node g: a claim that Origin
// committed Value, relayed by Relays (origin-side first; empty for a direct
// COMMITTED reception). A chain is an atomic evidence unit — the final
// relayer attested the entire relay list, so sub-paths of different chains
// must never be recombined (that would be unsound).
type Chain struct {
	Origin topology.NodeID
	Value  byte
	Relays []topology.NodeID
}

// Store accumulates the chains a node has recorded for the binary values 0
// and 1. An index over the origins it has heard about leads to both
// values' chain lists, and a per-value list of all evidence (relayed
// chains plus direct receptions as relay-free chains) serves the
// single-neighborhood commit rule without re-gathering. Chain lists and
// relay ids live in two shared slabs, so recording a chain allocates only
// when a slab or the index fills. Everything grows with the evidence
// recorded, never with the network. A Store is not safe for concurrent
// use.
type Store struct {
	slot    topology.NodeIndex // origin → position in origins
	origins []originEvidence
	byValue [2][]Chain
	// chainSlab backs every chain list; relaySlab backs every recorded
	// chain's relays, so a caller's relay slice is never retained.
	chainSlab []Chain
	relaySlab []topology.NodeID
	pack      packer // scratch reused by every packing evaluation
}

// originEvidence is one origin's evidence, per value.
type originEvidence struct {
	chains [2][]Chain // relayed chains, in insertion order
	direct [2]bool    // COMMITTED heard directly from the origin
}

// NewStore creates an empty evidence store.
func NewStore() *Store {
	return &Store{}
}

// find returns the origin's evidence, or nil when none is recorded.
func (s *Store) find(origin topology.NodeID) *originEvidence {
	if i, ok := s.slot.Lookup(origin); ok {
		return &s.origins[i]
	}
	return nil
}

// entry returns the origin's evidence, creating it when absent.
func (s *Store) entry(origin topology.NodeID) *originEvidence {
	i, added := s.slot.Put(origin)
	if added {
		s.origins = append(s.origins, originEvidence{})
	}
	return &s.origins[i]
}

// AddDirect records that the node heard COMMITTED(origin, value) on the
// channel itself — unforgeable, so it needs no disjoint-path corroboration
// — unless a direct reception from origin is already recorded under either
// value: the first version wins (§V). It returns true when the reception
// was recorded. Values other than 0 and 1 are ignored.
func (s *Store) AddDirect(origin topology.NodeID, value byte) bool {
	if value > 1 {
		return false
	}
	e := s.entry(origin)
	if e.direct[0] || e.direct[1] {
		return false
	}
	e.direct[value] = true
	s.byValue[value] = s.appendChain(s.byValue[value], Chain{Origin: origin, Value: value})
	return true
}

// HasDirect reports whether COMMITTED(origin, value) was heard directly.
func (s *Store) HasDirect(origin topology.NodeID, value byte) bool {
	e := s.find(origin)
	return e != nil && value <= 1 && e.direct[value]
}

// Add records a relayed chain unless a chain from the same origin with the
// same relay sequence is already recorded under either value — the first
// version wins (§V) — or the value is not 0 or 1. It returns true when the
// chain was recorded. The relays are copied; c.Relays is not retained.
func (s *Store) Add(c Chain) bool {
	if c.Value > 1 {
		return false
	}
	e := s.entry(c.Origin)
	for _, chains := range e.chains {
		for _, old := range chains {
			if slices.Equal(old.Relays, c.Relays) {
				return false
			}
		}
	}
	c.Relays = s.copyRelays(c.Relays)
	e.chains[c.Value] = s.appendChain(e.chains[c.Value], c)
	s.byValue[c.Value] = s.appendChain(s.byValue[c.Value], c)
	return true
}

// Chains returns the recorded relayed chains for (origin, value), in
// insertion order. The returned slice is shared; callers must not mutate
// it.
func (s *Store) Chains(origin topology.NodeID, value byte) []Chain {
	if e := s.find(origin); e != nil && value <= 1 {
		return e.chains[value]
	}
	return nil
}

// ValueChains returns every piece of evidence for the value across all
// origins, direct receptions included (as relay-free chains), in insertion
// order. The returned slice is shared; callers must not mutate it.
func (s *Store) ValueChains(value byte) []Chain {
	if value > 1 {
		return nil
	}
	return s.byValue[value]
}

// copyRelays copies relays into the relay slab, starting a fresh slab
// chunk (twice the last one) when the current chunk is full. Earlier
// chunks stay reachable through the chains that use them.
func (s *Store) copyRelays(relays []topology.NodeID) []topology.NodeID {
	if len(relays) == 0 {
		return nil
	}
	if cap(s.relaySlab)-len(s.relaySlab) < len(relays) {
		s.relaySlab = make([]topology.NodeID, 0, max(len(relays), 2*cap(s.relaySlab), 64))
	}
	start := len(s.relaySlab)
	s.relaySlab = append(s.relaySlab, relays...)
	return s.relaySlab[start:len(s.relaySlab):len(s.relaySlab)]
}

// appendChain appends c to a chain list. A full list moves to a segment of
// twice its capacity carved from the chain slab, so the lists share a few
// slab chunks instead of each owning a backing array.
func (s *Store) appendChain(list []Chain, c Chain) []Chain {
	if len(list) == cap(list) {
		n := max(2*cap(list), 2)
		if cap(s.chainSlab)-len(s.chainSlab) < n {
			s.chainSlab = make([]Chain, 0, max(n, 2*cap(s.chainSlab), 32))
		}
		at := len(s.chainSlab)
		s.chainSlab = s.chainSlab[:at+n]
		list = append(s.chainSlab[at:at:at+n], list...)
	}
	return append(list, c)
}
