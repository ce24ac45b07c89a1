package metrics

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/etrace"
	"repro/internal/topology"
)

// TestNilRecorderIsSafe pins the tap discipline: every event method on a
// nil collector is a no-op, so call sites may thread a nil tap with no
// guards.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Collector
	if r.Recording() {
		t.Fatal("nil collector reports Recording")
	}
	r.Broadcast(1, 2, 0, 1, topology.None, nil)
	r.Delivery(1, 3, 2, 0, 1, topology.None, nil)
	r.EvidenceEval(1, 3, 2, 1)
	r.Crash(1, 4)
	r.Spoof(1, 3, 2, 5)
	r.Commit(1, 3, 1, &etrace.Certificate{Rule: etrace.RuleDirect})
	if got := r.Events(); got != nil {
		t.Fatalf("nil collector returned events: %v", got)
	}
}

func TestRecorderPreservesOrder(t *testing.T) {
	r := NewRecording()
	if !r.Recording() {
		t.Fatal("fresh recording collector is not recording")
	}
	r.Broadcast(0, 1, 0, 1, topology.None, nil)
	r.Delivery(0, 2, 1, 0, 1, topology.None, nil)
	r.Commit(0, 2, 1, &etrace.Certificate{Rule: etrace.RuleDirect, Value: 1})
	events := r.Events()
	want := []etrace.Kind{etrace.KindBroadcast, etrace.KindDelivery, etrace.KindCommit}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d", len(events), len(want))
	}
	for i, k := range want {
		if events[i].Kind != k {
			t.Errorf("event %d has kind %v, want %v", i, events[i].Kind, k)
		}
	}
}

// TestRecorderCopiesPaths pins the record-time copy: mutating the caller's
// path slice after recording must not corrupt the trace. The engines reuse
// message buffers, so aliasing here would be a real bug.
func TestRecorderCopiesPaths(t *testing.T) {
	r := NewRecording()
	path := []topology.NodeID{7, 8}
	r.Broadcast(1, 1, 2, 1, 9, path)
	path[0] = 99
	got := r.Events()[0].Path
	if want := []topology.NodeID{7, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recorded path aliases the caller's slice: got %v, want %v", got, want)
	}
}

// TestEventsReturnsCopy: mutating the returned slice must not affect later
// snapshots.
func TestEventsReturnsCopy(t *testing.T) {
	r := NewRecording()
	r.Crash(2, 5)
	first := r.Events()
	first[0].Node = 42
	if again := r.Events(); again[0].Node != 5 {
		t.Fatal("Events exposes internal storage")
	}
}

// TestCrashClampsNegativeRound: fault plans encode "crashed before round
// 1" with negative rounds; the trace reports those as round 0.
func TestCrashClampsNegativeRound(t *testing.T) {
	r := NewRecording()
	r.Crash(-3, 1)
	if got := r.Events()[0].Round; got != 0 {
		t.Fatalf("crash round = %d, want 0", got)
	}
}

// TestConcurrentRecording: the concurrent runtime taps a recording
// collector from many node goroutines; every evaluation is both counted
// and kept, and no event is lost.
func TestConcurrentRecording(t *testing.T) {
	c := NewRecording()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.EvidenceEval((w+i)%17, topology.NodeID(w), topology.NodeID(i), 1)
				c.Commit((w+i)%17, topology.NodeID(w), 1, nil)
			}
		}(w)
	}
	wg.Wait()
	want := int64(workers * perWorker)
	if got := c.Snapshot().EvidenceEvals; got != want {
		t.Errorf("counted %d evaluations, want %d", got, want)
	}
	kinds := map[etrace.Kind]int64{}
	for _, ev := range c.Events() {
		kinds[ev.Kind]++
	}
	if kinds[etrace.KindEvidenceEval] != want || kinds[etrace.KindCommit] != want {
		t.Errorf("recorded %v, want %d of each", kinds, want)
	}
}
