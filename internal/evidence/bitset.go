package evidence

import (
	"math/bits"
	"sort"
	"sync"

	"repro/internal/grid"
	"repro/internal/topology"
)

// This file implements the word-packed set machinery behind the commit
// rules. The disjoint-path packing of §VI/§VI-B is an exact set packing
// over chains' node sets; representing each set as a bitmask over a
// compact, per-evaluation index of the nodes that actually occur turns the
// inner loops of the branch-and-bound (conflict tests, domination pruning,
// take/untake) into a handful of word operations.

// packer is the scratch of one packing evaluation: the gathered chains,
// the compact node index, the chain masks, the candidate lists and the
// branch-and-bound state. Evaluations borrow a packer from packers for
// their duration, so the scratch is shared by every store instead of
// grown in each. Its buffers grow with the evidence evaluated, never with
// the network, and once they have reached the working size an evaluation
// allocates nothing. Results are only valid until the next call on the
// same packer.
type packer struct {
	chains  []Chain            // one origin's chains, gathered from a store
	index   topology.NodeIndex // node id → compact bit index, per chainMasks call
	bits    []int32            // each id occurrence's bit index, in chain order
	backing []uint64           // the chain masks' words
	masks   [][]uint64         // one mask per chain, over backing
	usable  [][]uint64         // the masks one candidate center admits
	centers []grid.Coord       // candidate neighborhood centers
	// maxDisjoint's state: the surviving candidates smallest first, their
	// popcounts, domination flags, the chosen union and the incumbent.
	cand   [][]uint64
	pops   []int
	pruned []bool
	used   []uint64
	best   int
	target int
}

// packers holds the idle packers. Evaluations run on the engines'
// workers concurrently, and each holds its packer until it returns.
var packers = sync.Pool{New: func() any { return new(packer) }}

// popcount returns the number of set bits in m.
func popcount(m []uint64) int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// intersects reports whether a and b share a bit.
func intersects(a, b []uint64) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// maskSubsetOf reports a ⊆ b.
func maskSubsetOf(a, b []uint64) bool {
	for i := range a {
		if a[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// orInto ors src into dst.
func orInto(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

// andNotInto clears src's bits in dst.
func andNotInto(dst, src []uint64) {
	for i := range dst {
		dst[i] &^= src[i]
	}
}

// reserve returns buf emptied, with room for at least n elements. It
// doubles past n, so a store whose evaluations keep growing reallocates
// its scratch O(log n) times.
func reserve[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, 2*n)
	}
	return buf[:0]
}

// zeroed returns buf resized to n words, all zero.
func zeroed(buf []uint64, n int) []uint64 {
	buf = reserve(buf, n)[:n]
	clear(buf)
	return buf
}

// chainMasks packs the chains' node sets into bitmasks over a compact
// index of the nodes that occur. withOrigin selects whether a chain's
// origin participates in its set (the §VI-B whole-chain rule) or only its
// relays (the §VI internal-disjointness rule).
func (p *packer) chainMasks(chains []Chain, withOrigin bool) ([][]uint64, int) {
	// First pass: number every node so the word width is known,
	// remembering each occurrence's number for the second.
	p.index.Reset()
	p.bits = p.bits[:0]
	for i := range chains {
		c := &chains[i]
		if withOrigin {
			b, _ := p.index.Put(c.Origin)
			p.bits = append(p.bits, b)
		}
		for _, rel := range c.Relays() {
			b, _ := p.index.Put(rel)
			p.bits = append(p.bits, b)
		}
	}
	words := max((p.index.Len()+63)/64, 1)
	p.backing = zeroed(p.backing, len(chains)*words)
	p.masks = reserve(p.masks, len(chains))
	bits := p.bits
	for i := range chains {
		m := p.backing[i*words : (i+1)*words : (i+1)*words]
		k := int(chains[i].n)
		if withOrigin {
			k++
		}
		for _, b := range bits[:k] {
			m[b>>6] |= 1 << (uint(b) & 63)
		}
		bits = bits[k:]
		p.masks = append(p.masks, m)
	}
	return p.masks, words
}

// maxDisjoint computes the exact maximum pairwise-disjoint subfamily of
// the given bitmasks, stopping early once target is reached. Masks that
// are strict supersets of another mask are pruned first (domination), then
// a branch-and-bound search runs on the survivors. Each mask is an atomic
// evidence unit — recombining nodes across masks would be unsound, which
// is why this is a set packing rather than a flow problem.
func (p *packer) maxDisjoint(masks [][]uint64, words, target int) int {
	p.pops = reserve(p.pops, len(masks))
	p.pruned = reserve(p.pruned, len(masks))
	for _, m := range masks {
		p.pops = append(p.pops, popcount(m))
		p.pruned = append(p.pruned, false)
	}
	pops, pruned := p.pops, p.pruned
	for i := range masks {
		for j := range masks {
			if pruned[i] {
				break
			}
			if i == j || pruned[j] {
				continue
			}
			if maskSubsetOf(masks[j], masks[i]) && pops[j] < pops[i] {
				pruned[i] = true // i strictly dominated by j
			} else if maskSubsetOf(masks[i], masks[j]) && i < j && pops[i] == pops[j] {
				pruned[j] = true // exact duplicate; keep the first
			}
		}
	}
	// Survivors, smallest node sets first (they conflict less); insertion
	// sort keeps equal sizes in input order and allocates nothing. The
	// sorted sizes reuse pops[:n], which only holds consumed entries.
	p.cand = reserve(p.cand, len(masks))
	n := 0
	for i, m := range masks {
		if pruned[i] {
			continue
		}
		pi := pops[i]
		k := n
		for k > 0 && pops[k-1] > pi {
			k--
		}
		p.cand = append(p.cand, nil)
		copy(p.cand[k+1:], p.cand[k:n])
		copy(pops[k+1:n+1], pops[k:n])
		p.cand[k], pops[k] = m, pi
		n++
	}
	p.used = zeroed(p.used, words)
	p.best, p.target = 0, target
	p.search(0, 0)
	return p.best
}

// search is maxDisjoint's branch-and-bound over p.cand[idx:], with chosen
// masks already taken into p.used.
func (p *packer) search(idx, chosen int) {
	if chosen > p.best {
		p.best = chosen
	}
	if p.best >= p.target || idx >= len(p.cand) {
		return
	}
	if chosen+len(p.cand)-idx <= p.best {
		return // cannot beat the incumbent
	}
	// Branch 1: take p.cand[idx] if compatible.
	if m := p.cand[idx]; !intersects(m, p.used) {
		orInto(p.used, m)
		p.search(idx+1, chosen+1)
		andNotInto(p.used, m)
		if p.best >= p.target {
			return
		}
	}
	// Branch 2: skip it.
	p.search(idx+1, chosen)
}

// disjointWitnessMasks is maxDisjoint's witness-producing sibling: it
// returns the indices (into masks) of a pairwise-disjoint subfamily of size
// target, or nil when none exists. It runs without domination pruning — the
// caller needs real member indices, and witness extraction only runs at
// most once per traced commit, off the hot path.
func disjointWitnessMasks(masks [][]uint64, words, target int) []int {
	if target <= 0 {
		return []int{}
	}
	if len(masks) < target {
		return nil
	}
	// Smaller node sets first: they conflict less, shrinking the search.
	order := make([]int, len(masks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return popcount(masks[order[i]]) < popcount(masks[order[j]])
	})
	used := make([]uint64, words)
	chosen := make([]int, 0, target)
	var dfs func(pos int) bool
	dfs = func(pos int) bool {
		if len(chosen) >= target {
			return true
		}
		if len(chosen)+len(order)-pos < target {
			return false // not enough candidates left
		}
		i := order[pos]
		if !intersects(masks[i], used) {
			orInto(used, masks[i])
			chosen = append(chosen, i)
			if dfs(pos + 1) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
			andNotInto(used, masks[i])
		}
		return dfs(pos + 1)
	}
	if !dfs(0) {
		return nil
	}
	sort.Ints(chosen)
	return chosen
}
