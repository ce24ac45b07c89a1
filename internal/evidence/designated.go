package evidence

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/paths"
	"repro/internal/topology"
)

// FamilyTable is the precomputed designated-evidence plan for the 4-hop
// protocol — the paper's "earmarking exact messages that a node should
// lookout for" state reduction (§VI). It is translation invariant, so one
// table serves every node of a torus.
//
// For every relative offset d = origin − receiver that occurs in the
// completeness proof, the table stores the explicit family of r(2r+1)
// internally node-disjoint relay paths from the constructive proof
// (FamilyU/S1/S2), under all eight grid symmetries (the induction sweeps in
// all four directions). Receivers count confirmed designated paths; relayers
// forward only chains that are prefixes of some designated path.
//
// Relay sequences are matched via packed uint64 keys: each relay offset is a
// pair of int8s packed into 16 bits, up to paths.MaxIntermediates (3) relays
// per key, with the sequence length in the top word — so both the relayer's
// prefix probe and the receiver's confirmation count are allocation-free.
type FamilyTable struct {
	r int
	// fams maps the origin offset (relative to the receiver) to the family:
	// each path is a list of relay offsets relative to the receiver, stored
	// both explicitly and as a packed key for confirmation matching.
	fams map[grid.Coord]famEntry
	// prefixes holds packed relay-sequence prefixes in origin-relative
	// offsets.
	prefixes map[uint64]struct{}
}

// famEntry is one origin offset's designated family.
type famEntry struct {
	paths [][]grid.Coord // relay offsets relative to the receiver
	keys  []uint64       // packOffsets of each path, same order
}

// packOffsets encodes a relay-offset sequence (≤ paths.MaxIntermediates
// entries, each component within int8 range — true for any practical radius)
// as a single comparable word. Sequences longer than the inline capacity get
// a length-only key; they can never equal a designated-path key, whose
// length is always ≤ paths.MaxIntermediates.
func packOffsets(offs []grid.Coord) uint64 {
	key := uint64(len(offs)) << 48
	if len(offs) > paths.MaxIntermediates {
		return key
	}
	for i, d := range offs {
		key |= (uint64(uint8(int8(d.X))) | uint64(uint8(int8(d.Y)))<<8) << (16 * uint(i))
	}
	return key
}

// symmetries are the eight isometries of the integer grid fixing the origin.
var symmetries = []func(grid.Coord) grid.Coord{
	func(c grid.Coord) grid.Coord { return c },
	func(c grid.Coord) grid.Coord { return grid.C(-c.X, c.Y) },
	func(c grid.Coord) grid.Coord { return grid.C(c.X, -c.Y) },
	func(c grid.Coord) grid.Coord { return grid.C(-c.X, -c.Y) },
	func(c grid.Coord) grid.Coord { return grid.C(c.Y, c.X) },
	func(c grid.Coord) grid.Coord { return grid.C(-c.Y, c.X) },
	func(c grid.Coord) grid.Coord { return grid.C(c.Y, -c.X) },
	func(c grid.Coord) grid.Coord { return grid.C(-c.Y, -c.X) },
}

// NewFamilyTable builds the designated-family table for radius r (L∞).
func NewFamilyTable(r int) (*FamilyTable, error) {
	if r < 1 {
		return nil, fmt.Errorf("evidence: radius must be ≥ 1, got %d", r)
	}
	ft := &FamilyTable{
		r:        r,
		fams:     make(map[grid.Coord]famEntry),
		prefixes: make(map[uint64]struct{}),
	}
	center := grid.C(0, 0)
	p0 := paths.CornerP(center, r)
	regionNodes := make([]grid.Coord, 0, r*r)
	regionNodes = append(regionNodes, paths.RegionU(center, r)...)
	regionNodes = append(regionNodes, paths.RegionS1(center, r)...)
	regionNodes = append(regionNodes, paths.RegionS2(center, r)...)
	for _, n := range regionNodes {
		fam, err := paths.FamilyFor(center, r, n)
		if err != nil {
			return nil, fmt.Errorf("evidence: building family for %v: %w", n, err)
		}
		// Offset form relative to the receiver P.
		d := fam.N.Sub(p0)
		relPaths := make([][]grid.Coord, len(fam.Paths))
		for i, path := range fam.Paths {
			rels := make([]grid.Coord, 0, len(path)-2)
			for _, x := range path[1 : len(path)-1] {
				rels = append(rels, x.Sub(p0))
			}
			relPaths[i] = rels
		}
		for _, sym := range symmetries {
			sd := sym(d)
			if _, ok := ft.fams[sd]; ok {
				continue
			}
			sPaths := make([][]grid.Coord, len(relPaths))
			sKeys := make([]uint64, len(relPaths))
			for i, rels := range relPaths {
				srels := make([]grid.Coord, len(rels))
				for j, x := range rels {
					srels[j] = sym(x)
				}
				sPaths[i] = srels
				sKeys[i] = packOffsets(srels)
			}
			ft.fams[sd] = famEntry{paths: sPaths, keys: sKeys}
			ft.addPrefixes(sd, sPaths)
		}
	}
	return ft, nil
}

// addPrefixes records all relay-sequence prefixes of the family in
// origin-relative coordinates (relay − origin), so relayers can check
// membership without knowing the receiver.
func (ft *FamilyTable) addPrefixes(originOff grid.Coord, relPaths [][]grid.Coord) {
	var buf [paths.MaxIntermediates]grid.Coord
	for _, rels := range relPaths {
		for k := 1; k <= len(rels); k++ {
			// Re-base the prefix to origin-relative offsets.
			pre := buf[:k]
			for i, rel := range rels[:k] {
				pre[i] = rel.Sub(originOff)
			}
			ft.prefixes[packOffsets(pre)] = struct{}{}
		}
	}
}

// Radius returns the table's transmission radius.
func (ft *FamilyTable) Radius() int { return ft.r }

// Offsets returns the number of distinct origin offsets covered.
func (ft *FamilyTable) Offsets() int { return len(ft.fams) }

// FamilySize returns the number of designated paths for an origin offset,
// or zero when the offset is not covered.
func (ft *FamilyTable) FamilySize(originOff grid.Coord) int {
	return len(ft.fams[originOff].paths)
}

// ShouldRelay reports whether an honest node at relay-offset chain
// (origin-relative offsets of the already-affixed relays, ending with the
// would-be relayer itself) is a prefix of any designated path. The chain
// must already include the candidate relayer as its last element.
func (ft *FamilyTable) ShouldRelay(relOffsets []grid.Coord) bool {
	if len(relOffsets) == 0 || len(relOffsets) > paths.MaxIntermediates {
		return false
	}
	_, ok := ft.prefixes[packOffsets(relOffsets)]
	return ok
}

// ConfirmedPaths counts how many designated paths for the given origin
// offset are fully confirmed by recorded chains of the store (same origin,
// same value, exact relay sequence).
func (ft *FamilyTable) ConfirmedPaths(net *topology.Network, s *Store, receiver, origin topology.NodeID, value byte) int {
	d := net.Delta(receiver, origin)
	fam, ok := ft.fams[d]
	if !ok {
		return 0
	}
	log, next, first := s.relayed(origin, value)
	if first < 0 {
		return 0
	}
	// Pack each recorded chain's relay sequence once (receiver-relative),
	// then match designated-path keys by linear scan: both lists are small
	// (a family has r(2r+1) paths) and nothing escapes to the heap.
	var buf [32]uint64
	recorded := buf[:0]
	for i := first; i >= 0; i = next[i] {
		recorded = append(recorded, relayKey(net, receiver, log[i].Relays()))
	}
	confirmed := 0
	for _, pk := range fam.keys {
		for _, rk := range recorded {
			if rk == pk {
				confirmed++
				break
			}
		}
	}
	return confirmed
}

// ConfirmedChainList returns the recorded chains confirming designated
// paths for the receiver→origin offset — the explicit witness behind a
// DeterminedDesignated verdict, in designated-family order. Confirmed
// designated paths are internally node-disjoint and lie inside one closed
// neighborhood by construction, so the returned chains are a valid §VI
// evidence family whenever there are ≥ t+1 of them. Trace-path only; the
// hot path uses ConfirmedPaths, which never materializes the list.
func (ft *FamilyTable) ConfirmedChainList(net *topology.Network, s *Store, receiver, origin topology.NodeID, value byte) []Chain {
	d := net.Delta(receiver, origin)
	fam, ok := ft.fams[d]
	if !ok {
		return nil
	}
	chains := s.Chains(origin, value)
	if len(chains) == 0 {
		return nil
	}
	var out []Chain
	for _, pk := range fam.keys {
		for _, c := range chains {
			if relayKey(net, receiver, c.Relays()) == pk {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// HonestPathCount counts the designated paths for the receiver→origin
// offset whose relays all satisfy the honesty predicate. Honest relays
// always forward designated prefixes, so this is the number of paths
// guaranteed to be confirmed once the origin announces — the static
// counterpart of ConfirmedPaths, used by the outcome analyzer.
func (ft *FamilyTable) HonestPathCount(net *topology.Network, receiver, origin topology.NodeID, honest func(topology.NodeID) bool) int {
	d := net.Delta(receiver, origin)
	fam, ok := ft.fams[d]
	if !ok {
		return 0
	}
	recvC := net.CoordOf(receiver)
	count := 0
	for _, rels := range fam.paths {
		allHonest := true
		for _, off := range rels {
			if !honest(net.IDOf(recvC.Add(off))) {
				allHonest = false
				break
			}
		}
		if allHonest {
			count++
		}
	}
	return count
}

// relayKey packs a chain's relay ids as receiver-relative offsets.
func relayKey(net *topology.Network, receiver topology.NodeID, relays []topology.NodeID) uint64 {
	key := uint64(len(relays)) << 48
	if len(relays) > paths.MaxIntermediates {
		return key
	}
	for i, rel := range relays {
		d := net.Delta(receiver, rel)
		key |= (uint64(uint8(int8(d.X))) | uint64(uint8(int8(d.Y)))<<8) << (16 * uint(i))
	}
	return key
}

// DeterminedDesignated is the designated-mode counterpart of
// DeterminedExact: the receiver has reliably determined (origin, value) iff
// it heard the COMMITTED directly or at least `need` designated paths are
// confirmed. Designated paths are internally disjoint and lie inside one
// closed neighborhood by construction, so this is a sound instance of the
// paper's rule.
func DeterminedDesignated(net *topology.Network, ft *FamilyTable, s *Store, receiver, origin topology.NodeID, value byte, need int) bool {
	if s.HasDirect(origin, value) {
		return true
	}
	return ft.ConfirmedPaths(net, s, receiver, origin, value) >= need
}
