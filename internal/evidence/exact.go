package evidence

import (
	"repro/internal/grid"
	"repro/internal/topology"
)

// DeterminedExact implements the §VI reliable-determination rule verbatim:
// node `receiver` has reliably determined that `origin` committed `value`
// iff it heard COMMITTED(origin, value) directly, or its store holds at
// least need = t+1 recorded chains that are pairwise internally
// node-disjoint and whose nodes (origin, every relay, and the receiver) all
// lie within one single closed neighborhood.
//
// The search is exact: every candidate neighborhood center is enumerated
// and a branch-and-bound set packing runs over the recorded chains (chains
// are atomic units; combining relays across chains would be unsound).
func DeterminedExact(net *topology.Network, s *Store, receiver, origin topology.NodeID, value byte, need int) bool {
	if s.HasDirect(origin, value) {
		return true
	}
	p := packers.Get().(*packer)
	defer packers.Put(p)
	p.chains = s.appendChains(p.chains[:0], origin, value)
	chains := p.chains
	if len(chains) < need {
		return false
	}
	r := net.Radius()
	// Pack every chain's relay set once; each candidate center then only
	// filters the shared masks instead of rebuilding node sets.
	masks, words := p.chainMasks(chains, false)
	for _, center := range p.candidateCenters(net, net.CoordOf(receiver), origin) {
		inNbd := func(id topology.NodeID) bool {
			return net.Torus().Within(net.Metric(), center, net.CoordOf(id), r)
		}
		p.usable = reserve(p.usable, len(chains))
		for i := range chains {
			ok := true
			for _, rel := range chains[i].Relays() {
				if !inNbd(rel) {
					ok = false
					break
				}
			}
			if ok {
				p.usable = append(p.usable, masks[i])
			}
		}
		if len(p.usable) < need {
			continue
		}
		if p.maxDisjoint(p.usable, words, need) >= need {
			return true
		}
	}
	return false
}

// DeterminedExactWitness reconstructs the explicit evidence behind a
// DeterminedExact verdict: need pairwise internally node-disjoint recorded
// chains inside one closed neighborhood (or direct = true when the
// COMMITTED was heard on the channel itself, which needs no chains). ok is
// false when the rule does not currently hold. Trace-path only — it reruns
// the packing search with witness extraction, which DeterminedExact's hot
// path deliberately avoids.
func DeterminedExactWitness(net *topology.Network, s *Store, receiver, origin topology.NodeID, value byte, need int) (chains []Chain, direct, ok bool) {
	if s.HasDirect(origin, value) {
		return nil, true, true
	}
	all := s.Chains(origin, value)
	if len(all) < need {
		return nil, false, false
	}
	r := net.Radius()
	p := packers.Get().(*packer)
	defer packers.Put(p)
	masks, words := p.chainMasks(all, false)
	for _, center := range p.candidateCenters(net, net.CoordOf(receiver), origin) {
		inNbd := func(id topology.NodeID) bool {
			return net.Torus().Within(net.Metric(), center, net.CoordOf(id), r)
		}
		var sub [][]uint64
		var subIdx []int
		for i := range all {
			fits := true
			for _, rel := range all[i].Relays() {
				if !inNbd(rel) {
					fits = false
					break
				}
			}
			if fits {
				sub = append(sub, masks[i])
				subIdx = append(subIdx, i)
			}
		}
		if len(sub) < need {
			continue
		}
		if sel := disjointWitnessMasks(sub, words, need); sel != nil {
			out := make([]Chain, len(sel))
			for j, k := range sel {
				out[j] = all[subIdx[k]]
			}
			return out, false, true
		}
	}
	return nil, false, false
}

// candidateCenters enumerates the grid points whose closed neighborhood
// contains both the receiver and the origin, into the packer's buffer.
func (p *packer) candidateCenters(net *topology.Network, recvC grid.Coord, origin topology.NodeID) []grid.Coord {
	r := net.Radius()
	t := net.Torus()
	m := net.Metric()
	origC := net.CoordOf(origin)
	p.centers = reserve(p.centers, (2*r+1)*(2*r+1))
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			c := t.Wrap(recvC.Add(grid.C(dx, dy)))
			if !t.Within(m, c, recvC, r) {
				continue // L2: offset box is a superset of the ball
			}
			if t.Within(m, c, origC, r) {
				p.centers = append(p.centers, c)
			}
		}
	}
	return p.centers
}

// CommitSingleLevel implements the §VI-B (two-hop protocol) commit rule:
// the receiver commits to `value` iff there exist at least need = t+1
// recorded chains for that value — across any origins — that are pairwise
// node-disjoint including the origins, with every origin and relay lying in
// one single closed neighborhood. Chains are atomic evidence units, so the
// packing is an exact set packing over whole chains: the same physical node
// appearing as one chain's origin and another's relay is a conflict.
func CommitSingleLevel(net *topology.Network, s *Store, receiver topology.NodeID, value byte, need int) bool {
	return commitSingleLevel(net, s, receiver, value, need, nil)
}

// CommitSingleLevelFocused is CommitSingleLevel restricted to candidate
// neighborhoods that fully contain the given (newly recorded) chain. If the
// rule did not hold before that chain arrived, any newly satisfiable
// neighborhood must contain it, so evaluating only those centers after each
// insertion is complete — and far cheaper on hot paths.
func CommitSingleLevelFocused(net *topology.Network, s *Store, receiver topology.NodeID, value byte, need int, focus Chain) bool {
	return commitSingleLevel(net, s, receiver, value, need, &focus)
}

// commitSingleLevel implements both entry points.
func commitSingleLevel(net *topology.Network, s *Store, receiver topology.NodeID, value byte, need int, focus *Chain) bool {
	// All chains for this value (any origin), including the direct
	// COMMITTED receptions as relay-free chains; the store maintains this
	// list incrementally so the hot per-insertion commit check re-gathers
	// nothing.
	all := s.ValueChains(value)
	if len(all) < need {
		return false
	}
	r := net.Radius()
	t := net.Torus()
	m := net.Metric()
	// Candidate centers: within 3r of the receiver (chain nodes live within
	// 2 hops of it), or — focused mode — within r of the new chain's nodes.
	anchor := net.CoordOf(receiver)
	span := 3 * r
	if focus != nil {
		anchor = net.CoordOf(focus.Origin)
		span = r
	}
	// Pack every chain's whole node set (origin AND relays — the §VI-B
	// "collectively node-disjoint" requirement) once up front.
	p := packers.Get().(*packer)
	defer packers.Put(p)
	masks, words := p.chainMasks(all, true)
	for dy := -span; dy <= span; dy++ {
		for dx := -span; dx <= span; dx++ {
			center := t.Wrap(anchor.Add(grid.C(dx, dy)))
			if focus != nil {
				ok := t.Within(m, center, net.CoordOf(focus.Origin), r)
				for _, rel := range focus.Relays() {
					ok = ok && t.Within(m, center, net.CoordOf(rel), r)
				}
				if !ok {
					continue
				}
			}
			inNbd := func(id topology.NodeID) bool {
				return t.Within(m, center, net.CoordOf(id), r)
			}
			p.usable = reserve(p.usable, len(all))
			for i := range all {
				c := &all[i]
				if c.n > 1 {
					continue // two-hop protocol: at most one relay
				}
				if !inNbd(c.Origin) {
					continue
				}
				ok := true
				for _, rel := range c.Relays() {
					if !inNbd(rel) {
						ok = false
						break
					}
				}
				if ok {
					p.usable = append(p.usable, masks[i])
				}
			}
			if len(p.usable) < need {
				continue
			}
			if p.maxDisjoint(p.usable, words, need) >= need {
				return true
			}
		}
	}
	return false
}

// CommitWitness reconstructs the explicit evidence behind a satisfied
// §VI-B commit rule for the receiver: a closed-neighborhood center and
// need recorded chains for the value that are collectively node-disjoint
// (origins and relays) and lie wholly inside that neighborhood. ok is
// false when the rule does not currently hold. The center sweep mirrors
// commitSingleLevel's unfocused mode (span 3r around the receiver), which
// covers every center the focused hot-path check can fire at. Trace-path
// only.
func CommitWitness(net *topology.Network, s *Store, receiver topology.NodeID, value byte, need int) (center grid.Coord, chains []Chain, ok bool) {
	all := s.ValueChains(value)
	if len(all) < need {
		return grid.Coord{}, nil, false
	}
	r := net.Radius()
	t := net.Torus()
	m := net.Metric()
	anchor := net.CoordOf(receiver)
	span := 3 * r
	p := packers.Get().(*packer)
	defer packers.Put(p)
	masks, words := p.chainMasks(all, true)
	for dy := -span; dy <= span; dy++ {
		for dx := -span; dx <= span; dx++ {
			c := t.Wrap(anchor.Add(grid.C(dx, dy)))
			inNbd := func(id topology.NodeID) bool {
				return t.Within(m, c, net.CoordOf(id), r)
			}
			var sub [][]uint64
			var subIdx []int
			for i := range all {
				ch := &all[i]
				if ch.n > 1 {
					continue // two-hop protocol: at most one relay
				}
				if !inNbd(ch.Origin) {
					continue
				}
				fits := true
				for _, rel := range ch.Relays() {
					if !inNbd(rel) {
						fits = false
						break
					}
				}
				if fits {
					sub = append(sub, masks[i])
					subIdx = append(subIdx, i)
				}
			}
			if len(sub) < need {
				continue
			}
			if sel := disjointWitnessMasks(sub, words, need); sel != nil {
				out := make([]Chain, len(sel))
				for j, k := range sel {
					out[j] = all[subIdx[k]]
				}
				return c, out, true
			}
		}
	}
	return grid.Coord{}, nil, false
}
