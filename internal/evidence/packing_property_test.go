package evidence

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// maxDisjointSets runs p on explicit node sets, each posed as the relay set
// of one chain. The property tests reuse one packer across instances, so
// they also check that no evaluation leaks state into the next.
func maxDisjointSets(p *packer, sets []map[topology.NodeID]struct{}, target int) int {
	chains := make([]Chain, len(sets))
	for i, set := range sets {
		var relays []topology.NodeID
		for id := range set {
			relays = append(relays, id)
		}
		chains[i] = NewChain(0, 0, relays...)
	}
	masks, words := p.chainMasks(chains, false)
	return p.maxDisjoint(masks, words, target)
}

// bruteForceMaxDisjoint enumerates all subsets (sets are ≤ 12 in the tests)
// and returns the size of the largest pairwise-disjoint subfamily.
func bruteForceMaxDisjoint(sets []map[topology.NodeID]struct{}) int {
	n := len(sets)
	best := 0
	for mask := 0; mask < 1<<n; mask++ {
		used := make(map[topology.NodeID]struct{})
		count := 0
		ok := true
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for v := range sets[i] {
				if _, dup := used[v]; dup {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			for v := range sets[i] {
				used[v] = struct{}{}
			}
			count++
		}
		if ok && count > best {
			best = count
		}
	}
	return best
}

// TestMaxDisjointSetsMatchesBruteForce cross-checks the branch-and-bound
// packer against exhaustive enumeration on random small instances.
func TestMaxDisjointSetsMatchesBruteForce(t *testing.T) {
	var p packer
	f := func(seed uint32) bool {
		rng := seed
		next := func(mod uint32) uint32 {
			rng = rng*1664525 + 1013904223
			return (rng >> 8) % mod
		}
		n := int(next(10)) + 1 // 1..10 sets
		sets := make([]map[topology.NodeID]struct{}, n)
		for i := range sets {
			k := int(next(3)) + 1 // 1..3 nodes per set
			sets[i] = make(map[topology.NodeID]struct{}, k)
			for j := 0; j < k; j++ {
				sets[i][topology.NodeID(next(8))] = struct{}{} // universe of 8 nodes
			}
		}
		// Copy for the brute force (the packer must not mutate, but be safe).
		copies := make([]map[topology.NodeID]struct{}, n)
		for i, s := range sets {
			c := make(map[topology.NodeID]struct{}, len(s))
			for v := range s {
				c[v] = struct{}{}
			}
			copies[i] = c
		}
		want := bruteForceMaxDisjoint(copies)
		got := maxDisjointSets(&p, sets, n+1) // target beyond reach: exact maximum
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMaxDisjointSetsEarlyExitIsSound verifies the early-exit form never
// reports reaching a target the true maximum cannot reach.
func TestMaxDisjointSetsEarlyExitIsSound(t *testing.T) {
	var p packer
	f := func(seed uint32, targetRaw uint8) bool {
		rng := seed
		next := func(mod uint32) uint32 {
			rng = rng*1664525 + 1013904223
			return (rng >> 8) % mod
		}
		n := int(next(9)) + 1
		sets := make([]map[topology.NodeID]struct{}, n)
		for i := range sets {
			k := int(next(3)) + 1
			sets[i] = make(map[topology.NodeID]struct{}, k)
			for j := 0; j < k; j++ {
				sets[i][topology.NodeID(next(6))] = struct{}{}
			}
		}
		copies := make([]map[topology.NodeID]struct{}, n)
		for i, s := range sets {
			c := make(map[topology.NodeID]struct{}, len(s))
			for v := range s {
				c[v] = struct{}{}
			}
			copies[i] = c
		}
		truth := bruteForceMaxDisjoint(copies)
		target := int(targetRaw%6) + 1
		got := maxDisjointSets(&p, sets, target)
		// With early exit, got ≥ target implies truth ≥ target; and got
		// never exceeds the true maximum.
		if got > truth {
			return false
		}
		if got >= target && truth < target {
			return false
		}
		// If the packer stopped early it must have genuinely reached target.
		if truth >= target && got < minInt(target, truth) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
