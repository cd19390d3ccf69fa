// Package rescache is a sharded, size-bounded LRU result cache with
// singleflight collapse, built for memoizing query results keyed by
// (instance version, query fingerprint). Concurrent lookups of the same
// missing key share one computation: the first caller becomes the leader
// and runs the compute function, later callers block until the leader
// finishes and receive the same value (or error). Errors are never
// cached — the next caller retries.
//
// The cache never returns a stale entry for a key it was given; staleness
// is the caller's concern and is handled by versioned keys: embed a
// monotonically increasing instance version in the key and bump it on
// every mutation, so entries for the old version become unreachable and
// age out of the LRU naturally.
//
// The hit path is lock-free: each shard publishes an immutable entry map
// behind an atomic pointer, so a lookup is one pointer load, one map
// index, and one atomic timestamp touch. Mutations (inserts after a
// computed miss, removals, purges) build a copy-on-write successor map
// under the shard mutex and publish it atomically — the cost lands on
// the miss path, next to the compute it just paid for. Recency is
// tracked by a global monotone tick each hit stamps into the entry;
// eviction removes the smallest-tick entries until the shard is back
// under budget. Under serial access this reproduces exact LRU order;
// under concurrency it is approximate (ticks race by at most the number
// of in-flight readers), which is indistinguishable for a result cache.
//
// A key is hashed (FNV-1a) to one of a power-of-two number of shards,
// each with its own budget. All methods are safe for concurrent use.
package rescache

import (
	"context"
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count used by New. Must be a power of two.
const DefaultShards = 16

// entryOverhead is the bookkeeping cost charged to every entry on top of
// the caller-supplied cost, so a flood of tiny entries cannot blow the
// budget through map/list overhead alone.
const entryOverhead = 96

// Cache is a sharded LRU byte-budgeted cache with singleflight collapse.
type Cache struct {
	shards []shard
	mask   uint32

	// clock is the recency tick: every hit and insert stamps the next
	// value into the touched entry.
	clock atomic.Int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	collapsed atomic.Int64 // lookups served by joining an in-flight compute
}

type shard struct {
	// items is the published immutable entry map; readers load it
	// without taking mu. mu guards everything else and all publishes.
	items   atomic.Pointer[map[string]*entry]
	mu      sync.Mutex
	budget  int64
	bytes   int64
	flights map[string]*flight
}

type entry struct {
	key  string
	val  any
	cost int64
	used atomic.Int64 // last-touch tick from Cache.clock
}

// flight is one in-progress compute that concurrent callers share.
// done is closed by the leader after val/err are set; waiters select on
// it against their own context so an abandoned caller unblocks promptly
// while the leader keeps computing (and still populates the cache).
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New returns a cache bounded to roughly maxBytes across DefaultShards
// shards. maxBytes < 1 yields a cache that stores nothing but still
// collapses concurrent identical computes.
func New(maxBytes int64) *Cache {
	return NewSharded(maxBytes, DefaultShards)
}

// NewSharded is New with an explicit shard count, rounded up to the next
// power of two (minimum 1). The byte budget is split evenly per shard.
func NewSharded(maxBytes int64, shards int) *Cache {
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]shard, n), mask: uint32(n - 1)}
	per := maxBytes / int64(n)
	for i := range c.shards {
		s := &c.shards[i]
		s.budget = per
		empty := make(map[string]*entry)
		s.items.Store(&empty)
		s.flights = make(map[string]*flight)
	}
	return c
}

// fnv32a hashes the key for shard selection.
func fnv32a(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}

func (c *Cache) shard(key string) *shard {
	return &c.shards[fnv32a(key)&c.mask]
}

// Get returns the cached value for key, if present, marking it
// most-recently-used. Lock-free: one atomic map load plus an atomic
// recency stamp.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shard(key)
	e, ok := (*s.items.Load())[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	e.used.Store(c.clock.Add(1))
	c.hits.Add(1)
	return e.val, true
}

// Put inserts (or replaces) key with the given value and cost. A cost the
// shard's whole budget could not hold is refused: nothing is stored, no
// resident is evicted to make room that could never be enough, and a value
// already under key is dropped (it is no longer what key holds).
func (c *Cache) Put(key string, v any, cost int64) {
	s := c.shard(key)
	s.mu.Lock()
	s.insertLocked(c, key, v, cost)
	s.mu.Unlock()
}

// DoCtx returns the cached value for key, or computes it exactly once
// across concurrent callers. compute returns (value, cost, err): on err the
// value is handed to every waiting caller but never cached; on success the
// value is cached unless cost is negative (the caller's "do not cache"
// signal) or more than a shard can hold — still shared with concurrent
// waiters. A hit acquires no locks.
//
// A waiter whose ctx is done returns ctx.Err() promptly instead of
// blocking on the flight leader. The leader itself is NOT cancelled by a
// waiter's ctx — it runs compute to completion and still populates the
// cache, so one abandoned client cannot poison the result for the callers
// that stayed. (A leader whose own compute observes its ctx — as the
// engine's governed computes do — fails with an error, which is never
// cached.)
func (c *Cache) DoCtx(ctx context.Context, key string, compute func() (v any, cost int64, err error)) (any, error) {
	s := c.shard(key)
	if e, ok := (*s.items.Load())[key]; ok {
		e.used.Store(c.clock.Add(1))
		c.hits.Add(1)
		return e.val, nil
	}
	s.mu.Lock()
	// Re-check under the mutex: the entry may have been published
	// between the lock-free miss and acquiring mu.
	if e, ok := (*s.items.Load())[key]; ok {
		s.mu.Unlock()
		e.used.Store(c.clock.Add(1))
		c.hits.Add(1)
		return e.val, nil
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
			c.collapsed.Add(1)
			c.hits.Add(1)
			return f.val, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()
	c.misses.Add(1)

	v, cost, err := compute()
	f.val, f.err = v, err

	s.mu.Lock()
	delete(s.flights, key)
	if err == nil && cost >= 0 {
		s.insertLocked(c, key, v, cost)
	}
	s.mu.Unlock()
	close(f.done)
	return v, err
}

// insertLocked publishes a successor map with the entry added or
// replaced, evicting least-recently-used entries until the shard is back
// under budget. An entry that alone exceeds the budget is refused before
// anything is copied. Caller holds s.mu.
func (s *shard) insertLocked(c *Cache, key string, v any, cost int64) {
	if cost < 0 {
		cost = 0
	}
	cost += entryOverhead
	if cost > s.budget {
		s.removeLocked(key)
		return
	}
	cur := *s.items.Load()
	m := make(map[string]*entry, len(cur)+1)
	for k, e := range cur {
		m[k] = e
	}
	if old, ok := m[key]; ok {
		s.bytes -= old.cost
	}
	e := &entry{key: key, val: v, cost: cost}
	e.used.Store(c.clock.Add(1))
	m[key] = e
	s.bytes += cost
	for s.bytes > s.budget && len(m) > 0 {
		var victim *entry
		for _, cand := range m {
			if victim == nil || cand.used.Load() < victim.used.Load() {
				victim = cand
			}
		}
		delete(m, victim.key)
		s.bytes -= victim.cost
		c.evictions.Add(1)
	}
	s.items.Store(&m)
}

// Remove drops key from the cache, reporting whether it was present.
// In-flight computes for the key are unaffected.
func (c *Cache) Remove(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.removeLocked(key)
}

func (s *shard) removeLocked(key string) bool {
	cur := *s.items.Load()
	e, ok := cur[key]
	if !ok {
		return false
	}
	m := make(map[string]*entry, len(cur))
	for k, v := range cur {
		if k != key {
			m[k] = v
		}
	}
	s.bytes -= e.cost
	s.items.Store(&m)
	return true
}

// Purge drops every cached entry (in-flight computes are unaffected).
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		empty := make(map[string]*entry)
		s.items.Store(&empty)
		s.bytes = 0
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries. Lock-free.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		n += len(*c.shards[i].items.Load())
	}
	return n
}

// Bytes returns the total charged cost of cached entries (including the
// per-entry overhead).
func (c *Cache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time, JSON-encodable counter snapshot.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Collapsed int64 `json:"collapsed"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// Stats returns the cache's cumulative counters and current occupancy.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Collapsed: c.collapsed.Load(),
		Entries:   c.Len(),
		Bytes:     c.Bytes(),
	}
}
