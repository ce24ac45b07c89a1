package topology

import "testing"

// TestNodeIndexNumbersInInsertionOrder checks NodeIndex against a map
// across growth, repeats, negative and large ids, and a reset.
func TestNodeIndexNumbersInInsertionOrder(t *testing.T) {
	var x NodeIndex
	if _, ok := x.Lookup(3); ok || x.Len() != 0 {
		t.Fatal("the zero index must be empty")
	}
	want := map[NodeID]int32{}
	put := func(id NodeID) {
		t.Helper()
		num, added := x.Put(id)
		old, seen := want[id]
		if !seen {
			old = int32(len(want))
			want[id] = old
		}
		if num != old || added == seen {
			t.Fatalf("Put(%d) = %d, %v; want %d, %v", id, num, added, old, !seen)
		}
	}
	// Consecutive ids, strided ids that share low bits, repeats and
	// outliers, enough to force several resizes.
	for i := NodeID(0); i < 300; i++ {
		put(i)
		put(i * 1024)
		put(i / 2)
	}
	put(None)
	put(1<<31 - 1)
	if x.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", x.Len(), len(want))
	}
	for id, num := range want {
		if got, ok := x.Lookup(id); !ok || got != num {
			t.Fatalf("Lookup(%d) = %d, %v; want %d", id, got, ok, num)
		}
	}
	if _, ok := x.Lookup(7777); ok {
		t.Error("an id never put must be absent")
	}
	x.Reset()
	if _, ok := x.Lookup(5); ok || x.Len() != 0 {
		t.Fatal("Reset must empty the index")
	}
	if num, added := x.Put(5); num != 0 || !added {
		t.Fatalf("first Put after Reset = %d, %v; want 0, true", num, added)
	}
}

// TestNodeIndexSizeFollowsIDsNotRange pins the point of the type: putting
// a few far-apart ids allocates a table for a few ids.
func TestNodeIndexSizeFollowsIDsNotRange(t *testing.T) {
	var x NodeIndex
	for _, id := range []NodeID{0, 1 << 20, 1 << 30, 12345678} {
		x.Put(id)
	}
	if len(x.slots) > 16 {
		t.Errorf("4 ids took %d slots, want 16", len(x.slots))
	}
}

// TestNodeIndexReserve pins that a reserved index takes that many ids
// without growing, and that reserving more keeps every id's number.
func TestNodeIndexReserve(t *testing.T) {
	for _, n := range []int{1, 8, 24, 100} {
		var x NodeIndex
		x.Reserve(n)
		slots := len(x.slots)
		for i := 0; i < n; i++ {
			x.Put(NodeID(i * 7919))
		}
		if len(x.slots) != slots {
			t.Errorf("Reserve(%d): %d puts grew the table from %d to %d slots", n, n, slots, len(x.slots))
		}
		x.Reserve(4 * n)
		for i := 0; i < n; i++ {
			if num, ok := x.Lookup(NodeID(i * 7919)); !ok || num != int32(i) {
				t.Fatalf("Reserve(%d) after %d puts: Lookup(%d) = %d, %v; want %d", 4*n, n, i*7919, num, ok, i)
			}
		}
	}
}
