package topology

import "math/bits"

// NodeSet is a word-packed bitset over dense node ids. It replaces
// map[NodeID]struct{} on engine hot paths: membership is one shift and one
// AND, insertion allocates nothing, and a 1024-node torus fits in 128
// bytes. The zero value is unusable; create with NewNodeSet.
type NodeSet []uint64

// NewNodeSet returns an empty set able to hold ids in [0, size).
func NewNodeSet(size int) NodeSet {
	return make(NodeSet, (size+63)/64)
}

// Has reports membership. Ids outside the set's capacity are never members.
func (s NodeSet) Has(id NodeID) bool {
	w := uint(id) >> 6
	return int(w) < len(s) && s[w]&(1<<(uint(id)&63)) != 0
}

// Add inserts id. The id must be within the capacity given to NewNodeSet.
func (s NodeSet) Add(id NodeID) {
	s[uint(id)>>6] |= 1 << (uint(id) & 63)
}

// Len returns the number of members.
func (s NodeSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}
