package sim

import (
	"testing"

	"repro/internal/topology"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindValue, "VALUE"},
		{KindCommitted, "COMMITTED"},
		{KindHeard, "HEARD"},
		{Kind(0), "Kind(0)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestExtendPathCopies(t *testing.T) {
	orig := Message{
		Kind:   KindHeard,
		Origin: 7,
		Value:  1,
		Path:   []topology.NodeID{1, 2},
	}
	ext := orig.ExtendPath(3)
	if len(orig.Path) != 2 {
		t.Fatal("ExtendPath mutated the original path")
	}
	if len(ext.Path) != 3 || ext.Path[2] != 3 {
		t.Fatalf("extended path = %v", ext.Path)
	}
	// Appending to the extension must not alias the original either.
	ext2 := orig.ExtendPath(9)
	if ext.Path[2] != 3 || ext2.Path[2] != 9 {
		t.Error("extensions alias each other")
	}
}

func TestMessageString(t *testing.T) {
	tests := []struct {
		m    Message
		want string
	}{
		{Message{Kind: KindValue, Value: 1}, "VALUE(1)"},
		{Message{Kind: KindCommitted, Origin: 5, Value: 0}, "COMMITTED(5,0)"},
		// HEARD(j, i, v) with j the most recent relayer first, per §VI.
		{
			Message{Kind: KindHeard, Origin: 9, Value: 1, Path: []topology.NodeID{4, 6}},
			"HEARD(6,4,9,1)",
		},
		{Message{Kind: Kind(9)}, "Message{kind=9}"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}
