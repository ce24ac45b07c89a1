package scache

import (
	"container/list"
	"fmt"
	"sync"
)

// Stats is a point-in-time copy of a cache's counters. Hits include
// single-flight coalesced waiters — calls that returned a value without
// executing the function.
type Stats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// Cache is a bounded LRU with single-flight execution. The zero value is
// not usable; construct with New.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight[V]
	hits     uint64
	misses   uint64
	evicted  uint64
}

// entry is one resident cache line.
type entry[V any] struct {
	key string
	val V
}

// flight is one in-progress execution; waiters block on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns an empty cache bounded to capacity entries (capacity < 1 is
// clamped to 1 — a cache that cannot hold anything cannot deduplicate
// anything either).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight[V]),
	}
}

// Outcome classifies how one Do/DoOutcome call was resolved. Request
// tracing uses it to attribute the cache phase: a resident hit and a
// single-flight wait both report cached=true but spend time very
// differently.
type Outcome int

const (
	// OutcomeMiss: this call executed fn.
	OutcomeMiss Outcome = iota
	// OutcomeHit: the value was resident; no wait, no execution.
	OutcomeHit
	// OutcomeJoined: the call coalesced onto another caller's in-flight
	// execution and blocked until it settled.
	OutcomeJoined
)

// Do returns the cached value for key, or executes fn exactly once to
// produce it. Concurrent Do calls with the same key coalesce: one caller
// executes, the rest block until it finishes and share its value or error.
// cached reports whether this call avoided executing fn (resident hit or
// coalesced wait). Successful values are inserted at the LRU front;
// errors are returned to all coalesced callers but never cached.
func (c *Cache[V]) Do(key string, fn func() (V, error)) (val V, err error, cached bool) {
	val, err, outcome := c.DoOutcome(key, fn)
	return val, err, outcome != OutcomeMiss
}

// DoOutcome is Do with the resolution classified: OutcomeHit (resident),
// OutcomeJoined (coalesced onto an in-flight execution), or OutcomeMiss
// (this call executed fn).
func (c *Cache[V]) DoOutcome(key string, fn func() (V, error)) (val V, err error, outcome Outcome) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		val = el.Value.(*entry[V]).val
		c.mu.Unlock()
		return val, nil, OutcomeHit
	}
	if f, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-f.done
		return f.val, f.err, OutcomeJoined
	}
	f := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	// Settle in a defer so a panicking fn still releases its waiters
	// (with an error) instead of deadlocking them, then re-panics.
	settled := false
	defer func() {
		if !settled {
			f.err = fmt.Errorf("scache: execution for %q panicked", key)
			c.settle(key, f, false)
		}
	}()
	f.val, f.err = fn()
	settled = true
	c.settle(key, f, f.err == nil)
	return f.val, f.err, OutcomeMiss
}

// settle retires a flight: removes it from the in-flight table, optionally
// caches its value, and releases the waiters. A value that became resident
// while the flight was executing — a direct Put, or a newer flight for the
// same key that both started and settled after this one missed — is fresher
// than the flight's result, so settle must not clobber it; the flight's
// value still goes to its own waiters.
func (c *Cache[V]) settle(key string, f *flight[V], store bool) {
	c.mu.Lock()
	delete(c.inflight, key)
	if store {
		if _, resident := c.items[key]; !resident {
			c.putLocked(key, f.val)
		}
	}
	c.mu.Unlock()
	close(f.done)
}

// Get returns the resident value for key, counting a hit or miss. It does
// not join in-flight executions — callers that want coalescing use Do.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes a value at the LRU front.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val)
}

// putLocked inserts under c.mu, evicting from the LRU tail when full.
func (c *Cache[V]) putLocked(key string, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		c.evicted++
	}
}

// Len reports the resident entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats copies the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evicted, Entries: c.ll.Len()}
}
