package evidence

import (
	"fmt"

	"repro/internal/paths"
	"repro/internal/topology"
)

// Chain is one recorded report at a receiving node g: a claim that Origin
// committed Value, relayed by up to paths.MaxIntermediates relays
// (origin-side first; none for a direct COMMITTED reception). A chain is an
// atomic evidence unit — the final relayer attested the entire relay list,
// so sub-paths of different chains must never be recombined (that would be
// unsound).
//
// The relays are held inline, so a Chain holds no pointer: a slice of
// chains is one flat block the collector never scans, and copying a chain
// copies its relays. Chains are comparable; two chains are equal when
// their origins, values and relay sequences are.
type Chain struct {
	Origin topology.NodeID
	Value  byte
	n      uint8
	relays [paths.MaxIntermediates]topology.NodeID
}

// NewChain returns the chain reporting that origin committed value,
// relayed by relays. It panics when there are more than
// paths.MaxIntermediates relays, which a Chain cannot hold; Store.Add
// rejects such a list instead.
func NewChain(origin topology.NodeID, value byte, relays ...topology.NodeID) Chain {
	if len(relays) > paths.MaxIntermediates {
		panic(fmt.Sprintf("evidence: a chain holds at most %d relays, got %d", paths.MaxIntermediates, len(relays)))
	}
	c := Chain{Origin: origin, Value: value, n: uint8(len(relays))}
	copy(c.relays[:], relays)
	return c
}

// Relays returns the chain's relays, origin-side first. The slice aliases
// the chain; callers must not mutate it.
func (c *Chain) Relays() []topology.NodeID { return c.relays[:c.n:c.n] }

// Store accumulates the chains a node has recorded for the binary values 0
// and 1. Each value's log holds every piece of evidence for it in
// insertion order — relayed chains and direct receptions, the latter as
// relay-free chains — and is the only copy of each chain. The
// single-neighborhood commit rule reads a log whole; an origin reaches its
// relayed chains under a value through int32 links into that log, kept
// beside it. Every table is pointer-free, and each starts at the first
// capacity Init gives it when its first entry arrives, so a process
// sized from its neighborhood allocates each table once, and a value it
// never hears costs nothing. Everything grows with the evidence recorded,
// never with the network. The zero Store is empty and grows from nothing.
// A Store is not safe for concurrent use.
type Store struct {
	slot    topology.NodeIndex // origin → position in origins
	origins []originEvidence
	// logs[v] holds every chain recorded for value v, in insertion order.
	// next[v][i] is the index in logs[v] of the origin's next relayed
	// chain after logs[v][i], or −1 at the end of its list.
	logs [2][]Chain
	next [2][]int32
	// The first capacities of origins (and slot) and of each value's log.
	originCap, chainCap int
}

// originEvidence is one origin's evidence, per value.
type originEvidence struct {
	first  [2]int32 // index in logs[v] of the first relayed chain, −1 for none
	direct [2]bool  // COMMITTED heard directly from the origin
}

// NewStore creates an empty evidence store whose tables grow from nothing.
func NewStore() *Store {
	return &Store{}
}

// Init empties the store and sets its tables' first capacities: room for
// the given number of origins, and for chains chains under each value.
// Each table is allocated at that size when its first entry arrives and
// grows past it as an appended slice does.
func (s *Store) Init(origins, chains int) {
	*s = Store{originCap: origins, chainCap: chains}
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
	if s.origins == nil {
		s.slot.Reserve(s.originCap)
		s.origins = make([]originEvidence, 0, s.originCap)
	}
	i, added := s.slot.Put(origin)
	if added {
		s.origins = append(s.origins, originEvidence{first: [2]int32{-1, -1}})
	}
	return &s.origins[i]
}

// record appends c to its value's log, unlinked, and returns its index.
func (s *Store) record(c Chain) int32 {
	v := c.Value
	if s.logs[v] == nil {
		s.logs[v] = make([]Chain, 0, s.chainCap)
		s.next[v] = make([]int32, 0, s.chainCap)
	}
	s.logs[v] = append(s.logs[v], c)
	s.next[v] = append(s.next[v], -1)
	return int32(len(s.logs[v]) - 1)
}

// relayed returns value's log and links and the index of the origin's
// first relayed chain under value, −1 when there is none. The origin's
// chains are log[i] for i = first, next[first], … while i ≥ 0, in
// insertion order.
func (s *Store) relayed(origin topology.NodeID, value byte) (log []Chain, next []int32, first int32) {
	e := s.find(origin)
	if e == nil || value > 1 {
		return nil, nil, -1
	}
	return s.logs[value], s.next[value], e.first[value]
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
	s.record(Chain{Origin: origin, Value: value})
	return true
}

// HasDirect reports whether COMMITTED(origin, value) was heard directly.
func (s *Store) HasDirect(origin topology.NodeID, value byte) bool {
	e := s.find(origin)
	return e != nil && value <= 1 && e.direct[value]
}

// Add records the chain reporting that origin committed value, relayed by
// relays, unless a chain from the same origin with the same relay sequence
// is already recorded under either value — the first version wins (§V) —
// or the value is not 0 or 1, or there are more than paths.MaxIntermediates
// relays, which no chain of the paper's protocols carries. It returns true
// when the chain was recorded. The relays are copied; the slice is not
// retained.
func (s *Store) Add(origin topology.NodeID, value byte, relays []topology.NodeID) bool {
	if value > 1 || len(relays) > paths.MaxIntermediates {
		return false
	}
	c := NewChain(origin, value, relays...)
	e := s.entry(origin)
	tail := int32(-1) // the origin's last chain under value
	for v := range e.first {
		log, next := s.logs[v], s.next[v]
		for i := e.first[v]; i >= 0; i = next[i] {
			if old := &log[i]; old.n == c.n && old.relays == c.relays {
				return false
			}
			if v == int(value) {
				tail = i
			}
		}
	}
	i := s.record(c)
	if tail < 0 {
		e.first[value] = i
	} else {
		s.next[value][tail] = i
	}
	return true
}

// Chains returns the recorded relayed chains for (origin, value), in
// insertion order, in a new slice.
func (s *Store) Chains(origin topology.NodeID, value byte) []Chain {
	return s.appendChains(nil, origin, value)
}

// appendChains appends the recorded relayed chains for (origin, value) to
// dst, in insertion order.
func (s *Store) appendChains(dst []Chain, origin topology.NodeID, value byte) []Chain {
	log, next, first := s.relayed(origin, value)
	for i := first; i >= 0; i = next[i] {
		dst = append(dst, log[i])
	}
	return dst
}

// ValueChains returns every piece of evidence for the value across all
// origins, direct receptions included (as relay-free chains), in insertion
// order. The returned slice is the store's log; callers must not mutate
// it.
func (s *Store) ValueChains(value byte) []Chain {
	if value > 1 {
		return nil
	}
	return s.logs[value]
}
