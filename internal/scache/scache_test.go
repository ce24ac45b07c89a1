package scache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoCachesValues(t *testing.T) {
	c := New[int](4)
	calls := 0
	fn := func() (int, error) { calls++; return 42, nil }
	v, err, outcome := c.DoOutcome("k", fn)
	if v != 42 || err != nil || outcome != OutcomeMiss {
		t.Fatalf("first DoOutcome = (%d, %v, %v)", v, err, outcome)
	}
	v, err, outcome = c.DoOutcome("k", fn)
	if v != 42 || err != nil || outcome != OutcomeHit {
		t.Fatalf("second DoOutcome = (%d, %v, %v)", v, err, outcome)
	}
	if calls != 1 {
		t.Errorf("fn executed %d times", calls)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New[int](4)
	boom := errors.New("boom")
	calls := 0
	_, err, _ := c.DoOutcome("k", func() (int, error) { calls++; return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, err, outcome := c.DoOutcome("k", func() (int, error) { calls++; return 7, nil })
	if v != 7 || err != nil || outcome != OutcomeMiss {
		t.Fatalf("retry after error = (%d, %v, %v)", v, err, outcome)
	}
	if calls != 2 {
		t.Errorf("fn executed %d times, want 2 (errors must not be cached)", calls)
	}
	if n := c.Stats().Entries; n != 1 {
		t.Errorf("cache holds %d entries", n)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // touch a: b becomes the eviction victim
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should be resident", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPutRefreshesExistingKey(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not a second entry
	if n := c.Stats().Entries; n != 2 {
		t.Fatalf("len = %d", n)
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("a = %d after refresh", v)
	}
	c.Put("c", 3) // "b" is LRU now
	if _, ok := c.Get("b"); ok {
		t.Error("refresh did not move a to the front")
	}
}

func TestCapacityClamp(t *testing.T) {
	c := New[int](-3)
	c.Put("a", 1)
	c.Put("b", 2)
	if n := c.Stats().Entries; n != 1 {
		t.Errorf("len = %d, want 1 (capacity clamped)", n)
	}
}

func TestSingleFlightCoalescing(t *testing.T) {
	c := New[int](4)
	const waiters = 16
	var calls atomic.Int32
	gate := make(chan struct{})
	entered := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, waiters)
	cachedCount := atomic.Int32{}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, outcome := c.DoOutcome("k", func() (int, error) {
				close(entered)
				<-gate
				calls.Add(1)
				return 99, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			if outcome != OutcomeMiss {
				cachedCount.Add(1)
			}
			results[i] = v
		}(i)
	}
	<-entered // the executor is inside fn; the rest must coalesce
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn executed %d times under %d concurrent calls", got, waiters)
	}
	for i, v := range results {
		if v != 99 {
			t.Errorf("waiter %d got %d", i, v)
		}
	}
	if got := cachedCount.Load(); got != waiters-1 {
		// Every non-executor either coalesced or (if it arrived after
		// settle) hit the cache; neither reports OutcomeMiss.
		t.Errorf("%d callers reported cached, want %d", got, waiters-1)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != waiters-1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPanickingExecutionReleasesWaiters(t *testing.T) {
	c := New[int](4)
	defer func() {
		if recover() == nil {
			t.Error("panic must propagate to the executor")
		}
		// Waiters must have been released with an error, and the key must
		// be retryable.
		v, err, outcome := c.DoOutcome("k", func() (int, error) { return 5, nil })
		if v != 5 || err != nil || outcome != OutcomeMiss {
			t.Errorf("retry after panic = (%d, %v, %v)", v, err, outcome)
		}
	}()
	c.DoOutcome("k", func() (int, error) { panic("kaboom") })
}

func TestConcurrentMixedOperations(t *testing.T) {
	c := New[string](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%13)
				switch i % 3 {
				case 0:
					c.DoOutcome(key, func() (string, error) { return key, nil })
				case 1:
					if v, ok := c.Get(key); ok && v != key {
						t.Errorf("corrupted value %q for %q", v, key)
					}
				default:
					c.Put(key, key)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Stats().Entries; n > 8 {
		t.Errorf("capacity exceeded: %d", n)
	}
}

// TestSettleDoesNotClobberFresherValue pins the settle/Put race: a Put (or
// a newer completed flight) that lands while a flight is still executing is
// fresher than the flight's result, so the flight settling must not
// overwrite it. The flight's own caller still receives the flight's value —
// only the cache content is at stake.
func TestSettleDoesNotClobberFresherValue(t *testing.T) {
	c := New[string](4)
	executing := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	var flightVal string
	go func() {
		defer close(done)
		v, err, outcome := c.DoOutcome("k", func() (string, error) {
			close(executing)
			<-release
			return "stale", nil
		})
		if err != nil || outcome != OutcomeMiss {
			t.Errorf("DoOutcome = (%q, %v, %v), want fresh execution", v, err, outcome)
		}
		flightVal = v
	}()
	<-executing
	// The flight is mid-execution: a direct Put makes a fresher value
	// resident for the same key.
	c.Put("k", "fresh")
	close(release)
	<-done
	if flightVal != "stale" {
		t.Errorf("flight caller got %q, want its own result \"stale\"", flightVal)
	}
	if v, ok := c.Get("k"); !ok || v != "fresh" {
		t.Errorf("cache holds (%q, %t) after settle, want the fresher \"fresh\" — settle clobbered a resident entry", v, ok)
	}
}

// TestSettleStoresWhenNothingFresherExists is the non-racy complement: with
// no competing write, the settling flight's value becomes resident.
func TestSettleStoresWhenNothingFresherExists(t *testing.T) {
	c := New[int](4)
	if v, err, _ := c.DoOutcome("k", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Fatalf("DoOutcome = (%d, %v)", v, err)
	}
	if v, ok := c.Get("k"); !ok || v != 7 {
		t.Errorf("cache holds (%d, %t), want the settled 7", v, ok)
	}
}
