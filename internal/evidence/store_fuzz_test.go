package evidence

import (
	"slices"
	"testing"

	"repro/internal/topology"
)

// storeModel is the reference Store: plain maps and slices, no slabs and
// no index.
type storeModel struct {
	chains  map[[2]int][]Chain // (origin, value) → relayed chains in order
	direct  map[[2]int]bool
	byValue [2][]Chain
}

// add records c unless the same origin and relays are recorded under
// either value.
func (m *storeModel) add(c Chain) bool {
	for v := 0; v < 2; v++ {
		for _, old := range m.chains[[2]int{int(c.Origin), v}] {
			if slices.Equal(old.Relays, c.Relays) {
				return false
			}
		}
	}
	k := [2]int{int(c.Origin), int(c.Value)}
	c.Relays = slices.Clone(c.Relays)
	m.chains[k] = append(m.chains[k], c)
	m.byValue[c.Value] = append(m.byValue[c.Value], c)
	return true
}

// addDirect records a direct reception unless one from the origin is
// recorded under either value.
func (m *storeModel) addDirect(origin topology.NodeID, value byte) bool {
	if m.direct[[2]int{int(origin), 0}] || m.direct[[2]int{int(origin), 1}] {
		return false
	}
	m.direct[[2]int{int(origin), int(value)}] = true
	m.byValue[value] = append(m.byValue[value], Chain{Origin: origin, Value: value})
	return true
}

// sameChains compares chain lists by content and order; a nil and an
// empty relay list are the same chain.
func sameChains(a, b []Chain) bool {
	return slices.EqualFunc(a, b, func(x, y Chain) bool {
		return x.Origin == y.Origin && x.Value == y.Value && slices.Equal(x.Relays, y.Relays)
	})
}

// FuzzStore drives a Store and the reference model with the same random
// sequence of Add and AddDirect calls — values 0 and 1, relay lists of
// length 0 to 4 over a small id alphabet, plus exact repeats, reorderings
// and value flips of earlier chains — and requires them to agree on every
// Add and AddDirect result, on HasDirect, and on the contents and order of
// Chains and ValueChains.
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
	const origins = 7
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		s := NewStore()
		m := &storeModel{chains: map[[2]int][]Chain{}, direct: map[[2]int]bool{}}
		var added []Chain // every chain offered to Add, for repeats
		for op := 0; len(data) > 0; op++ {
			var c Chain
			switch kind := next() % 5; kind {
			case 0: // a fresh relayed chain
				c = Chain{Origin: topology.NodeID(next() % origins), Value: byte(next() % 2)}
				for n := next() % 5; n > 0; n-- {
					c.Relays = append(c.Relays, topology.NodeID(next()%8))
				}
			case 1: // a direct reception
				origin, value := topology.NodeID(next()%origins), byte(next()%2)
				if got, want := s.AddDirect(origin, value), m.addDirect(origin, value); got != want {
					t.Fatalf("op %d: AddDirect(%d, %d) = %v, model %v", op, origin, value, got, want)
				}
				continue
			default: // an earlier chain: repeated, reversed or value-flipped
				if len(added) == 0 {
					continue
				}
				c = added[next()%len(added)]
				c.Relays = slices.Clone(c.Relays)
				switch kind {
				case 3:
					slices.Reverse(c.Relays)
				case 4:
					c.Value ^= 1
				}
			}
			added = append(added, Chain{Origin: c.Origin, Value: c.Value, Relays: slices.Clone(c.Relays)})
			if got, want := s.Add(c), m.add(c); got != want {
				t.Fatalf("op %d: Add(%v) = %v, model %v", op, c, got, want)
			}
			for i := range c.Relays {
				c.Relays[i] = 99 // the store must have copied them
			}
		}
		for o := topology.NodeID(0); o < origins; o++ {
			for v := byte(0); v < 2; v++ {
				if got, want := s.HasDirect(o, v), m.direct[[2]int{int(o), int(v)}]; got != want {
					t.Fatalf("HasDirect(%d, %d) = %v, model %v", o, v, got, want)
				}
				if got, want := s.Chains(o, v), m.chains[[2]int{int(o), int(v)}]; !sameChains(got, want) {
					t.Fatalf("Chains(%d, %d) = %v, model %v", o, v, got, want)
				}
			}
		}
		for v := byte(0); v < 2; v++ {
			if got, want := s.ValueChains(v), m.byValue[v]; !sameChains(got, want) {
				t.Fatalf("ValueChains(%d) = %v, model %v", v, got, want)
			}
		}
	})
}
