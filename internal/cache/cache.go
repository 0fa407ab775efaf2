// Package cache provides the backboned daemon's memo: LRU, a
// byte-bounded least-recently-used cache with integrated single-flight
// deduplication, and Group, that single-flight on its own.
//
// Both are generic over key and value. The daemon's LRU users are the
// graph cache (parsed request bodies keyed by a content hash of the
// body), the score cache (score tables keyed by graph hash and method)
// and the session store (live sessions keyed by ID, each costing 1
// against -max-sessions). The fleet layer coalesces identical
// concurrent forwards through a Group. LRU.Do is the primary entry
// point — it returns a cached value, joins an in-flight computation
// for the same key, or computes and stores the value itself. Values
// never expire by time; they are evicted least-recently-used when the
// configured byte budget overflows.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	// Hits counts Do/Get calls answered from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts Do calls that computed their value (Get misses too).
	Misses uint64 `json:"misses"`
	// Coalesced counts Do calls answered by joining another caller's
	// in-flight computation instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts entries removed to honor the byte budget.
	Evictions uint64 `json:"evictions"`
	// Entries is the current entry count.
	Entries int `json:"entries"`
	// Bytes is the summed cost of current entries; MaxBytes the budget.
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// LRU is a concurrency-safe, byte-bounded, least-recently-used memo
// cache with single-flight deduplication. A nil *LRU is a valid
// always-miss cache: Do computes directly, Get always misses — so
// callers can disable caching by configuration without branching.
type LRU[K comparable, V any] struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	ll      *list.List // front = most recently used
	items   map[K]*list.Element
	stats   Stats
	flights Group[K, V]
}

type entry[K comparable, V any] struct {
	key  K
	v    V
	cost int64
}

// New returns an LRU bounded to maxBytes of summed entry cost, or nil
// (the always-miss cache) when maxBytes <= 0.
func New[K comparable, V any](maxBytes int64) *LRU[K, V] {
	if maxBytes <= 0 {
		return nil
	}
	return &LRU[K, V]{
		max:   maxBytes,
		ll:    list.New(),
		items: make(map[K]*list.Element),
	}
}

// Do returns the value for key: from the cache, by joining an
// identical in-flight computation, or by running compute (which
// reports the value's cost in bytes). hit is true when compute did not
// run in this call — the caller skipped the work. Misses run through
// the cache's Group, so failed computations are never cached; their
// error goes to the leader, and waiters retry (one of them becoming
// the new leader) unless their own ctx is done.
func (c *LRU[K, V]) Do(ctx context.Context, key K, compute func() (V, int64, error)) (v V, hit bool, err error) {
	if c == nil {
		v, _, err := compute()
		return v, false, err
	}
	c.mu.Lock()
	v, hit = c.get(key)
	c.mu.Unlock()
	if hit {
		return v, true, nil
	}
	computed := false
	v, shared, err := c.flights.Do(ctx, key, func() (V, error) {
		c.mu.Lock()
		if v, ok := c.get(key); ok {
			// Another flight for key stored its value between our miss
			// above and our lead here.
			c.mu.Unlock()
			return v, nil
		}
		c.stats.Misses++
		c.mu.Unlock()
		computed = true
		v, cost, err := compute()
		if err == nil {
			// Stored before the flight is released: a caller that
			// misses the flight finds the value instead.
			c.Add(key, v, cost)
		}
		return v, err
	})
	if shared {
		c.mu.Lock()
		c.stats.Coalesced++
		c.mu.Unlock()
	}
	return v, err == nil && !computed, err
}

// get returns key's value and bumps its recency, counting a hit. Must
// hold c.mu.
func (c *LRU[K, V]) get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*entry[K, V]).v, true
}

// Get returns the cached value for key without computing anything.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.get(key)
	if !ok {
		c.stats.Misses++
	}
	return v, ok
}

// Contains reports whether key is cached right now, without bumping
// recency or touching the hit/miss counters — a pure peek for callers
// that classify a request by cache residency (the daemon's admission
// lanes) before deciding whether to serve it at all.
func (c *LRU[K, V]) Contains(key K) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Add inserts (or refreshes) a value with the given cost, evicting
// least-recently-used entries as needed.
func (c *LRU[K, V]) Add(key K, v V, cost int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, v, cost)
}

// add inserts under c.mu. Values costing more than the whole budget
// are not stored at all.
func (c *LRU[K, V]) add(key K, v V, cost int64) {
	if cost < 0 {
		cost = 0
	}
	if cost > c.max {
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[K, V])
		c.bytes += cost - e.cost
		e.v, e.cost = v, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, v: v, cost: cost})
		c.bytes += cost
	}
	for c.bytes > c.max && c.ll.Len() > 0 {
		c.remove(c.ll.Back())
		c.stats.Evictions++
	}
}

// Remove drops key's entry and reports whether one was cached.
func (c *LRU[K, V]) Remove(key K) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		c.remove(el)
	}
	return ok
}

// remove unlinks one entry. Must hold c.mu.
func (c *LRU[K, V]) remove(el *list.Element) {
	e := c.ll.Remove(el).(*entry[K, V])
	delete(c.items, e.key)
	c.bytes -= e.cost
}

// Len returns the current entry count.
func (c *LRU[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache's counters. A nil cache
// reports zeros.
func (c *LRU[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	s.MaxBytes = c.max
	return s
}

// Group deduplicates concurrent computations by key: the first caller
// for a key leads and runs fn, and callers arriving while it runs wait
// for its result instead of starting their own. Nothing is stored —
// once the leader returns, the next caller computes afresh. The zero
// Group is ready to use.
type Group[K comparable, V any] struct {
	mu      sync.Mutex
	flights map[K]*flight[V]
}

// flight is one in-progress computation other callers can wait on.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// errComputePanicked is what waiters observe when a leader's fn
// panicked; they retry rather than inherit it.
var errComputePanicked = errors.New("cache: compute panicked")

// Do returns fn's value for key, either by running fn as the leader or
// by joining an identical in-flight call; shared reports that this
// call joined and did no work itself. A leader's failure — possibly on
// its own context (cancel, timeout) — never poisons waiters: they
// retry, one becoming the new leader, unless their own ctx is done.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, shared bool, err error) {
	for {
		g.mu.Lock()
		f, ok := g.flights[key]
		if !ok {
			break
		}
		g.mu.Unlock()
		select {
		case <-f.done:
			if f.err == nil {
				return f.v, true, nil
			}
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			return v, false, err
		}
	}
	if g.flights == nil {
		g.flights = make(map[K]*flight[V])
	}
	f := &flight[V]{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	g.lead(key, f, fn)
	return f.v, false, f.err
}

// lead runs fn as the flight's leader. The deferred cleanup runs even
// if fn panics: the flight is removed and its done channel closed
// (with an error set) so the key is never wedged — waiters retry, and
// the panic itself keeps unwinding to the caller (net/http's handler
// recovery, in the daemon).
func (g *Group[K, V]) lead(key K, f *flight[V], fn func() (V, error)) {
	completed := false
	defer func() {
		if !completed {
			f.err = errComputePanicked
		}
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.v, f.err = fn()
	completed = true
}
