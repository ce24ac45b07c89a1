package topology

import "math/bits"

// NodeIndex numbers node ids 0, 1, 2, … in first-insertion order, so that
// per-node state can live in slices indexed by the number. It is an
// open-addressing hash table whose size follows the number of ids put,
// never the network's size: a process that keeps its per-node state
// behind a NodeIndex holds memory proportional to the nodes it has heard
// about. Any id, negative ones included, may be put. The zero value is an
// empty index.
type NodeIndex struct {
	slots []indexSlot // a power of two long, at most half full
	shift uint        // 32 − log2(len(slots)), for Fibonacci hashing
	n     int32
}

// indexSlot holds one id and its number plus one; num == 0 marks a free
// slot.
type indexSlot struct {
	id  NodeID
	num int32
}

// Len returns the number of ids put since the index was created or reset.
func (x *NodeIndex) Len() int { return int(x.n) }

// Lookup returns id's number, or false when id has not been put.
func (x *NodeIndex) Lookup(id NodeID) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	s := x.slot(id)
	return s.num - 1, s.num != 0
}

// Put returns id's number; added reports whether id was new, in which
// case its number is the previous Len.
func (x *NodeIndex) Put(id NodeID) (num int32, added bool) {
	if 2*(x.n+1) > int32(len(x.slots)) {
		x.grow()
	}
	s := x.slot(id)
	if s.num != 0 {
		return s.num - 1, false
	}
	x.n++
	*s = indexSlot{id: id, num: x.n}
	return x.n - 1, true
}

// Reserve makes room for n ids in all, so that puts up to that many
// allocate nothing. It never shrinks the table.
func (x *NodeIndex) Reserve(n int) {
	if 2*n > len(x.slots) {
		x.resize(max(1<<bits.Len(uint(2*n-1)), 16))
	}
}

// Reset empties the index, keeping its table for reuse.
func (x *NodeIndex) Reset() {
	clear(x.slots)
	x.n = 0
}

// slot returns the slot holding id, or the free slot where id belongs.
func (x *NodeIndex) slot(id NodeID) *indexSlot {
	mask := uint32(len(x.slots) - 1)
	for i := uint32(id) * 0x9E3779B9 >> x.shift; ; i = (i + 1) & mask {
		if s := &x.slots[i]; s.num == 0 || s.id == id {
			return s
		}
	}
}

// grow doubles the table (to at least 16 slots).
func (x *NodeIndex) grow() { x.resize(max(2*len(x.slots), 16)) }

// resize moves every id into a new table of size slots, a power of two.
func (x *NodeIndex) resize(size int) {
	old := x.slots
	x.slots = make([]indexSlot, size)
	x.shift = uint(32 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.num != 0 {
			*x.slot(s.id) = s
		}
	}
}
