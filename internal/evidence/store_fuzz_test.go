package evidence

import (
	"slices"
	"testing"

	"repro/internal/paths"
	"repro/internal/topology"
)

// storeModel is the reference Store: plain maps and slices, no index, no
// links and no first capacities.
type storeModel struct {
	chains  map[[2]int][]Chain // (origin, value) → relayed chains in order
	direct  map[[2]int]bool
	byValue [2][]Chain
}

// offer is one Add call's arguments.
type offer struct {
	origin topology.NodeID
	value  byte
	relays []topology.NodeID
}

// add records o unless it has more than paths.MaxIntermediates relays or
// the same origin and relays are recorded under either value.
func (m *storeModel) add(o offer) bool {
	if len(o.relays) > paths.MaxIntermediates {
		return false
	}
	for v := 0; v < 2; v++ {
		for _, old := range m.chains[[2]int{int(o.origin), v}] {
			if slices.Equal(old.Relays(), o.relays) {
				return false
			}
		}
	}
	c := NewChain(o.origin, o.value, o.relays...)
	k := [2]int{int(o.origin), int(o.value)}
	m.chains[k] = append(m.chains[k], c)
	m.byValue[o.value] = append(m.byValue[o.value], c)
	return true
}

// addDirect records a direct reception unless one from the origin is
// recorded under either value.
func (m *storeModel) addDirect(origin topology.NodeID, value byte) bool {
	if m.direct[[2]int{int(origin), 0}] || m.direct[[2]int{int(origin), 1}] {
		return false
	}
	m.direct[[2]int{int(origin), int(value)}] = true
	m.byValue[value] = append(m.byValue[value], NewChain(origin, value))
	return true
}

// FuzzStore drives a Store and the reference model with the same random
// sequence of Add and AddDirect calls — values 0 and 1, relay lists of
// length 0 to 4 over a small id alphabet (a chain holds at most 3, so Add
// must reject the longest), plus exact repeats, reorderings and value
// flips of earlier chains — and requires them to agree on every Add and
// AddDirect result, on HasDirect, and on the contents and order of Chains
// and ValueChains.
//
// An input runs at most its first maxStoreOpBytes bytes. Each byte drives
// one step, and both the store and the model scan an origin's chains on
// every Add, so a long input costs time quadratic in its length; uncapped,
// the mutator's ever longer inputs (and their minimization) stalled the
// engine at 0 execs per second within a few seconds of a 10 s run, while
// 256 bytes still reach every operation kind many times over.
func FuzzStore(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 4, 2, 0, 0, 1, 1, 5, 3, 0})
	f.Add([]byte{1, 2, 0, 0, 2, 1, 3, 3, 4, 5, 2, 1, 0, 0, 1, 1, 2, 3, 4})
	f.Add([]byte{0, 3, 0, 4, 1, 2, 3, 4, 3, 0, 0, 3, 0, 4, 1, 2, 3, 4, 2, 0})
	// A chain, then the same origin and relays under the other value (a
	// rejected version), its reversal and an exact repeat of the flip.
	f.Add([]byte{0, 1, 1, 2, 3, 4, 4, 0, 3, 0, 2, 1, 1, 2, 0})
	// Contradictory direct receptions, then a relayed chain from the same
	// origin.
	f.Add([]byte{1, 6, 0, 1, 6, 1, 1, 6, 0, 0, 6, 1, 1, 2})
	// A four-relay chain (rejected), its three-relay prefix and a repeat
	// of the four-relay offer.
	f.Add([]byte{0, 1, 1, 4, 2, 3, 4, 5, 0, 1, 1, 3, 2, 3, 4, 2, 0})
	// Direct and relayed chains interleaved under both values, so each
	// value's log mixes origins and an origin's chains are not adjacent.
	f.Add([]byte{1, 2, 0, 0, 2, 1, 1, 3, 1, 3, 1, 0, 3, 0, 2, 4, 5, 0, 2, 0, 1, 6, 1, 4, 0, 0, 2, 1, 1, 5, 0, 4, 1, 1, 2, 0, 3, 0, 1, 6})
	const origins, maxStoreOpBytes = 7, 256
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), maxStoreOpBytes)]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// First capacities below what most inputs record, so the origin
		// table, the index and both logs grow past them.
		s := new(Store)
		s.Init(2, 3)
		m := &storeModel{chains: map[[2]int][]Chain{}, direct: map[[2]int]bool{}}
		var offered []offer // every Add offer, for repeats
		for op := 0; len(data) > 0; op++ {
			var o offer
			switch kind := next() % 5; kind {
			case 0: // a fresh relayed chain
				o = offer{origin: topology.NodeID(next() % origins), value: byte(next() % 2)}
				for n := next() % 5; n > 0; n-- {
					o.relays = append(o.relays, topology.NodeID(next()%8))
				}
			case 1: // a direct reception
				origin, value := topology.NodeID(next()%origins), byte(next()%2)
				if got, want := s.AddDirect(origin, value), m.addDirect(origin, value); got != want {
					t.Fatalf("op %d: AddDirect(%d, %d) = %v, model %v", op, origin, value, got, want)
				}
				continue
			default: // an earlier offer: repeated, reversed or value-flipped
				if len(offered) == 0 {
					continue
				}
				o = offered[next()%len(offered)]
				o.relays = slices.Clone(o.relays)
				switch kind {
				case 3:
					slices.Reverse(o.relays)
				case 4:
					o.value ^= 1
				}
			}
			offered = append(offered, offer{o.origin, o.value, slices.Clone(o.relays)})
			if got, want := s.Add(o.origin, o.value, o.relays), m.add(o); got != want {
				t.Fatalf("op %d: Add(%d, %d, %v) = %v, model %v", op, o.origin, o.value, o.relays, got, want)
			}
			for i := range o.relays {
				o.relays[i] = 99 // the store must have copied them
			}
		}
		for o := topology.NodeID(0); o < origins; o++ {
			for v := byte(0); v < 2; v++ {
				if got, want := s.HasDirect(o, v), m.direct[[2]int{int(o), int(v)}]; got != want {
					t.Fatalf("HasDirect(%d, %d) = %v, model %v", o, v, got, want)
				}
				if got, want := s.Chains(o, v), m.chains[[2]int{int(o), int(v)}]; !slices.Equal(got, want) {
					t.Fatalf("Chains(%d, %d) = %v, model %v", o, v, got, want)
				}
			}
		}
		for v := byte(0); v < 2; v++ {
			if got, want := s.ValueChains(v), m.byValue[v]; !slices.Equal(got, want) {
				t.Fatalf("ValueChains(%d) = %v, model %v", v, got, want)
			}
		}
	})
}
