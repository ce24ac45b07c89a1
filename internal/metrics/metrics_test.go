package metrics

import (
	"sync"
	"testing"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.AddBroadcasts(1, 3)
	c.AddDeliveries(1, 3)
	c.AddEvidenceEvals(1, 3)
	c.AddCommit(1)
	snap := c.Snapshot()
	if snap.Broadcasts != 0 || snap.Commits != 0 || len(snap.PerRound) != 0 {
		t.Errorf("nil collector recorded something: %+v", snap)
	}
}

func TestTotalsMatchPerRoundSums(t *testing.T) {
	c := New()
	c.AddBroadcasts(0, 1)
	c.AddBroadcasts(2, 4)
	c.AddDeliveries(1, 8)
	c.AddDeliveries(2, 8)
	c.AddEvidenceEvals(2, 5)
	c.AddCommit(0)
	c.AddCommit(2)
	c.AddCommit(2)

	snap := c.Snapshot()
	if snap.Broadcasts != 5 || snap.Deliveries != 16 || snap.EvidenceEvals != 5 || snap.Commits != 3 {
		t.Fatalf("totals: %+v", snap)
	}
	if len(snap.PerRound) != 3 {
		t.Fatalf("rounds = %d, want 3", len(snap.PerRound))
	}
	var b, d, e, cm int64
	for _, rc := range snap.PerRound {
		b += rc.Broadcasts
		d += rc.Deliveries
		e += rc.EvidenceEvals
		cm += rc.Commits
	}
	if b != snap.Broadcasts || d != snap.Deliveries || e != snap.EvidenceEvals || cm != snap.Commits {
		t.Errorf("per-round sums (%d,%d,%d,%d) != totals (%d,%d,%d,%d)",
			b, d, e, cm, snap.Broadcasts, snap.Deliveries, snap.EvidenceEvals, snap.Commits)
	}
}

func TestZeroAddsAllocateNothing(t *testing.T) {
	c := New()
	c.AddBroadcasts(5, 0)
	c.AddDeliveries(9, 0)
	c.AddEvidenceEvals(9, 0)
	if snap := c.Snapshot(); len(snap.PerRound) != 0 {
		t.Errorf("zero adds grew the histogram to %d rounds", len(snap.PerRound))
	}
}

func TestNegativeRoundClampsToZero(t *testing.T) {
	c := New()
	c.AddBroadcasts(-3, 2)
	snap := c.Snapshot()
	if len(snap.PerRound) != 1 || snap.PerRound[0].Broadcasts != 2 {
		t.Errorf("negative round not clamped: %+v", snap.PerRound)
	}
}

func TestConcurrentTaps(t *testing.T) {
	c := New()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				round := (w + i) % 17
				c.AddBroadcasts(round, 1)
				c.AddDeliveries(round, 2)
				c.AddEvidenceEvals(round, 1)
				c.AddCommit(round)
			}
		}(w)
	}
	wg.Wait()
	snap := c.Snapshot()
	want := int64(workers * perWorker)
	if snap.Broadcasts != want || snap.Deliveries != 2*want || snap.EvidenceEvals != want || snap.Commits != want {
		t.Errorf("lost updates: %+v (want %d broadcasts)", snap, want)
	}
}
