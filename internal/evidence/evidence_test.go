package evidence

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/topology"
)

func testNet(t *testing.T, w, h, r int) *topology.Network {
	t.Helper()
	net, err := topology.New(grid.Torus{W: w, H: h}, grid.Linf, r)
	if err != nil {
		t.Fatalf("topology.New: %v", err)
	}
	return net
}

func TestStoreDedup(t *testing.T) {
	s := NewStore()
	relays := []topology.NodeID{2, 3}
	if !s.Add(5, 1, relays) {
		t.Error("first add must succeed")
	}
	if s.Add(5, 1, relays) {
		t.Error("duplicate add must be rejected")
	}
	// Same origin and relays under the other value: the first version
	// wins (§V), so the store keeps only the value-1 chain.
	if s.Add(5, 0, relays) {
		t.Error("a contradictory version of a recorded chain must be rejected")
	}
	if len(s.Chains(5, 1)) != 1 || len(s.Chains(5, 0)) != 0 {
		t.Error("chains misfiled")
	}
	// Any other origin or relay sequence is a new chain.
	for i, v := range []Chain{
		NewChain(2, 0, 2, 3),
		NewChain(5, 0, 2),
		NewChain(5, 0, 2, 3, 4),
		NewChain(5, 0),
	} {
		if !s.Add(v.Origin, v.Value, v.Relays()) {
			t.Errorf("variant %d collides", i)
		}
	}
	// A chain holds at most paths.MaxIntermediates relays; a longer list
	// is rejected, not truncated.
	if s.Add(6, 0, []topology.NodeID{1, 2, 3, 4}) || len(s.Chains(6, 0)) != 0 {
		t.Error("a four-relay chain must be rejected")
	}
}

func TestStoreDirect(t *testing.T) {
	s := NewStore()
	if !s.AddDirect(7, 1) {
		t.Error("first direct reception must be recorded")
	}
	if s.AddDirect(7, 1) || s.AddDirect(7, 0) {
		t.Error("a repeated or contradictory direct reception must be rejected")
	}
	if !s.HasDirect(7, 1) || s.HasDirect(7, 0) || s.HasDirect(8, 1) {
		t.Error("direct bookkeeping wrong")
	}
	if got := len(s.ValueChains(1)) + len(s.ValueChains(0)); got != 1 {
		t.Errorf("recorded %d direct receptions, want 1", got)
	}
}

func TestChainKeyDistinguishesOrder(t *testing.T) {
	s := NewStore()
	if !s.Add(1, 0, []topology.NodeID{2, 3}) {
		t.Fatal("first add must succeed")
	}
	// Chains are attested sequences: the same relays in another order are
	// a new chain.
	if !s.Add(1, 0, []topology.NodeID{3, 2}) {
		t.Error("reordered relays must make a new chain")
	}
	if got := len(s.Chains(1, 0)); got != 2 {
		t.Errorf("recorded %d chains, want 2", got)
	}
}

func TestStoreCopiesRelays(t *testing.T) {
	s := NewStore()
	relays := []topology.NodeID{4, 5}
	s.Add(1, 1, relays)
	relays[0] = 9
	if got := s.Chains(1, 1)[0].Relays(); got[0] != 4 {
		t.Errorf("stored relays alias the caller's slice: %v", got)
	}
}

// maxDisjointChains returns the size of a maximum pairwise relay-disjoint
// subset of chains, stopping early once target is reached.
func maxDisjointChains(chains []Chain, target int) int {
	var p packer
	masks, words := p.chainMasks(chains, false)
	return p.maxDisjoint(masks, words, target)
}

func TestMaxDisjointChains(t *testing.T) {
	mk := func(rels ...topology.NodeID) Chain {
		return NewChain(99, 1, rels...)
	}
	tests := []struct {
		name   string
		chains []Chain
		want   int
	}{
		{"empty", nil, 0},
		{"single", []Chain{mk(1)}, 1},
		{"two disjoint", []Chain{mk(1), mk(2)}, 2},
		{"two conflicting", []Chain{mk(1, 2), mk(2, 3)}, 1},
		{"chain conflicts with both", []Chain{mk(1), mk(2), mk(1, 2)}, 2},
		{"triangle", []Chain{mk(1, 2), mk(2, 3), mk(3, 1)}, 1},
		{"pick small over big", []Chain{mk(1, 2, 3), mk(1), mk(2), mk(3)}, 3},
		{"duplicates collapse", []Chain{mk(4), mk(4)}, 1},
	}
	for _, tt := range tests {
		if got := maxDisjointChains(tt.chains, 10); got != tt.want {
			t.Errorf("%s: got %d, want %d", tt.name, got, tt.want)
		}
	}
}

func TestMaxDisjointChainsEarlyExit(t *testing.T) {
	var chains []Chain
	for i := 0; i < 30; i++ {
		chains = append(chains, NewChain(1, 1, topology.NodeID(i)))
	}
	// With target 3, the search stops as soon as 3 are packed.
	if got := maxDisjointChains(chains, 3); got < 3 {
		t.Errorf("early-exit search found %d, want ≥ 3", got)
	}
}

func TestDeterminedExactDirect(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	s := NewStore()
	s.AddDirect(5, 1)
	if !DeterminedExact(net, s, 0, 5, 1, 99) {
		t.Error("direct hearing determines regardless of need")
	}
}

func TestDeterminedExactViaChains(t *testing.T) {
	// r=1, t=1: need t+1 = 2 disjoint chains within one closed nbd.
	net := testNet(t, 9, 9, 1)
	recv := net.IDOf(grid.C(2, 2))
	origin := net.IDOf(grid.C(4, 2)) // distance 2: both in nbd centered (3,2)
	relayA := net.IDOf(grid.C(3, 1))
	relayB := net.IDOf(grid.C(3, 3))
	s := NewStore()
	s.Add(origin, 1, []topology.NodeID{relayA})
	if DeterminedExact(net, s, recv, origin, 1, 2) {
		t.Error("one chain cannot satisfy need=2")
	}
	s.Add(origin, 1, []topology.NodeID{relayB})
	if !DeterminedExact(net, s, recv, origin, 1, 2) {
		t.Error("two disjoint in-nbd chains must determine")
	}
	// Wrong value is unaffected.
	if DeterminedExact(net, s, recv, origin, 0, 2) {
		t.Error("evidence is per-value")
	}
}

func TestDeterminedExactRejectsSharedRelay(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	recv := net.IDOf(grid.C(2, 2))
	origin := net.IDOf(grid.C(4, 2))
	shared := net.IDOf(grid.C(3, 2))
	far := net.IDOf(grid.C(3, 1))
	s := NewStore()
	// Two chains sharing their only relay: max packing is 1.
	s.Add(origin, 1, []topology.NodeID{shared})
	s.Add(origin, 1, []topology.NodeID{shared, far})
	if DeterminedExact(net, s, recv, origin, 1, 2) {
		t.Error("chains sharing a relay are not disjoint evidence")
	}
}

func TestDeterminedExactRequiresSingleNeighborhood(t *testing.T) {
	// Relays far apart: no single closed nbd contains origin, receiver and
	// both relays.
	net := testNet(t, 15, 15, 1)
	recv := net.IDOf(grid.C(5, 5))
	origin := net.IDOf(grid.C(7, 5))
	nearRelay := net.IDOf(grid.C(6, 5))
	farRelay := net.IDOf(grid.C(6, 9)) // outside every candidate nbd
	s := NewStore()
	s.Add(origin, 1, []topology.NodeID{nearRelay})
	s.Add(origin, 1, []topology.NodeID{farRelay})
	if DeterminedExact(net, s, recv, origin, 1, 2) {
		t.Error("chains outside a single neighborhood must not count together")
	}
}

func TestCommitSingleLevel(t *testing.T) {
	// r=1, t=1: need 2 disjoint chains (over distinct origins) in one nbd.
	net := testNet(t, 9, 9, 1)
	recv := net.IDOf(grid.C(2, 2))
	o1 := net.IDOf(grid.C(3, 2))
	o2 := net.IDOf(grid.C(3, 3))
	s := NewStore()
	s.AddDirect(o1, 1)
	if CommitSingleLevel(net, s, recv, 1, 2) {
		t.Error("single chain insufficient")
	}
	s.AddDirect(o2, 1)
	if !CommitSingleLevel(net, s, recv, 1, 2) {
		t.Error("two direct commits in one nbd must commit")
	}
}

func TestCommitSingleLevelDisjointness(t *testing.T) {
	// A node acting as another chain's relay breaks disjointness.
	net := testNet(t, 9, 9, 1)
	recv := net.IDOf(grid.C(2, 2))
	o1 := net.IDOf(grid.C(4, 2))
	o2 := net.IDOf(grid.C(3, 2)) // o2 is also the relay of o1's chain
	s := NewStore()
	s.Add(o1, 1, []topology.NodeID{o2})
	s.AddDirect(o2, 1)
	if CommitSingleLevel(net, s, recv, 1, 2) {
		t.Error("origin reused as relay violates collective disjointness")
	}
	// Add an independent second origin: now two disjoint chains exist.
	o3 := net.IDOf(grid.C(3, 3))
	s.AddDirect(o3, 1)
	if !CommitSingleLevel(net, s, recv, 1, 2) {
		t.Error("disjoint pair must commit")
	}
}

func TestCommitSingleLevelIgnoresLongChains(t *testing.T) {
	net := testNet(t, 9, 9, 1)
	recv := net.IDOf(grid.C(2, 2))
	o1 := net.IDOf(grid.C(3, 2))
	s := NewStore()
	s.Add(o1, 1, []topology.NodeID{
		net.IDOf(grid.C(3, 3)), net.IDOf(grid.C(2, 3)),
	})
	s.AddDirect(net.IDOf(grid.C(2, 1)), 1)
	if CommitSingleLevel(net, s, recv, 1, 2) {
		t.Error("two-relay chains are not §VI-B evidence")
	}
}

func TestNewFamilyTableValidation(t *testing.T) {
	if _, err := NewFamilyTable(0); err == nil {
		t.Error("radius 0 must be rejected")
	}
}

func TestFamilyTableCoverage(t *testing.T) {
	for r := 1; r <= 4; r++ {
		ft, err := NewFamilyTable(r)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		// The corner construction covers r² offsets (U + S1 + S2); the 8
		// symmetries multiply coverage (with overlaps).
		if ft.Offsets() < r*r {
			t.Errorf("r=%d: only %d offsets covered", r, ft.Offsets())
		}
		// Every covered offset has the full family of r(2r+1) paths.
		want := r * (2*r + 1)
		for off, fam := range ft.fams {
			if len(fam.paths) != want {
				t.Errorf("r=%d offset %v: %d paths, want %d", r, off, len(fam.paths), want)
			}
			if len(fam.keys) != len(fam.paths) {
				t.Errorf("r=%d offset %v: %d packed keys for %d paths", r, off, len(fam.keys), len(fam.paths))
			}
		}
	}
}

func TestFamilyTableSymmetricOffsets(t *testing.T) {
	ft, err := NewFamilyTable(2)
	if err != nil {
		t.Fatal(err)
	}
	// The S1 offset for p=0 is (0, -(r+1)) = (0,-3); all four axis-aligned
	// rotations must be covered.
	for _, off := range []grid.Coord{grid.C(0, -3), grid.C(0, 3), grid.C(-3, 0), grid.C(3, 0)} {
		if ft.FamilySize(off) == 0 {
			t.Errorf("offset %v not covered", off)
		}
	}
}

func TestShouldRelayPrefixes(t *testing.T) {
	r := 2
	ft, err := NewFamilyTable(r)
	if err != nil {
		t.Fatal(err)
	}
	// Take a designated path and check all its prefixes are relayable.
	var off grid.Coord
	var somePath []grid.Coord
	for o, fam := range ft.fams {
		for _, path := range fam.paths {
			if len(path) == 3 {
				off, somePath = o, path
				break
			}
		}
		if somePath != nil {
			break
		}
	}
	if somePath == nil {
		t.Fatal("no 3-relay designated path found")
	}
	for k := 1; k <= len(somePath); k++ {
		rels := make([]grid.Coord, k)
		for i := 0; i < k; i++ {
			rels[i] = somePath[i].Sub(off) // origin-relative
		}
		if !ft.ShouldRelay(rels) {
			t.Errorf("prefix of length %d of designated path must be relayable", k)
		}
	}
	// A garbage offset sequence is not relayable.
	if ft.ShouldRelay([]grid.Coord{grid.C(9, 9)}) {
		t.Error("non-designated prefix relayed")
	}
	if ft.ShouldRelay(nil) {
		t.Error("empty prefix must be rejected")
	}
}

func TestConfirmedPathsAndDeterminedDesignated(t *testing.T) {
	r := 1
	ft, err := NewFamilyTable(r)
	if err != nil {
		t.Fatal(err)
	}
	net := testNet(t, 9, 9, r)
	recv := net.IDOf(grid.C(4, 4))
	// S1-type offset (0, -(r+1)) = origin two rows below the receiver.
	origin := net.IDOf(grid.C(4, 2))
	d := net.Delta(recv, origin)
	relPaths := ft.fams[d].paths
	if len(relPaths) != r*(2*r+1) {
		t.Fatalf("offset %v: %d designated paths", d, len(relPaths))
	}
	s := NewStore()
	if got := ft.ConfirmedPaths(net, s, recv, origin, 1); got != 0 {
		t.Fatalf("no chains: confirmed = %d", got)
	}
	// Confirm designated paths one by one.
	recvC := net.CoordOf(recv)
	for i, rels := range relPaths {
		ids := make([]topology.NodeID, len(rels))
		for j, off := range rels {
			ids[j] = net.IDOf(recvC.Add(off))
		}
		s.Add(origin, 1, ids)
		if got := ft.ConfirmedPaths(net, s, recv, origin, 1); got != i+1 {
			t.Fatalf("after %d chains: confirmed = %d", i+1, got)
		}
	}
	need := 2 // t+1 with t = MaxByzantineLinf(1) = 1
	if !DeterminedDesignated(net, ft, s, recv, origin, 1, need) {
		t.Error("fully confirmed family must determine")
	}
	if DeterminedDesignated(net, ft, s, recv, origin, 0, need) {
		t.Error("wrong value must not be determined")
	}
	// Direct hearing shortcut.
	s2 := NewStore()
	s2.AddDirect(origin, 1)
	if !DeterminedDesignated(net, ft, s2, recv, origin, 1, need) {
		t.Error("direct hearing determines")
	}
}

func TestFamilyTablePathsAreValidOnTorus(t *testing.T) {
	// Materialize every designated path on a torus and check hop validity
	// and containment in a single closed neighborhood.
	r := 2
	ft, err := NewFamilyTable(r)
	if err != nil {
		t.Fatal(err)
	}
	net := testNet(t, 15, 15, r)
	recv := net.IDOf(grid.C(7, 7))
	recvC := net.CoordOf(recv)
	for off, fam := range ft.fams {
		originC := recvC.Add(off)
		seen := make(map[topology.NodeID]bool)
		for _, rels := range fam.paths {
			full := make([]grid.Coord, 0, len(rels)+2)
			full = append(full, originC)
			for _, ro := range rels {
				full = append(full, recvC.Add(ro))
			}
			full = append(full, recvC)
			for i := 1; i < len(full); i++ {
				if !net.Torus().Within(grid.Linf, net.Torus().Wrap(full[i-1]), net.Torus().Wrap(full[i]), r) {
					t.Fatalf("offset %v: hop %v→%v too long", off, full[i-1], full[i])
				}
			}
			for _, ro := range rels {
				id := net.IDOf(recvC.Add(ro))
				if seen[id] {
					t.Fatalf("offset %v: relay %v reused", off, ro)
				}
				seen[id] = true
			}
		}
	}
}
