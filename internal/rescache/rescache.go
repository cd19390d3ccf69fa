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
// A key is hashed (FNV-1a) to one of a power-of-two number of shards,
// each with its own byte budget and its own mutex. A shard is a map from
// key to entry plus an intrusive doubly-linked list of the same entries in
// recency order, both guarded by that mutex: a hit moves its entry to the
// front, an insert links one entry and unlinks from the tail until the
// shard is back under budget, and a removal unlinks. Every operation is
// O(1), nothing is copied, and the order is exact LRU under any
// interleaving. All methods are safe for concurrent use.
package rescache

import (
	"context"
	"fmt"
	"sync"
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
}

// shard is one lock's worth of the cache; mu guards every field, the
// counters included, so a lookup pays for no atomic besides the lock.
type shard struct {
	mu      sync.Mutex
	items   map[string]*entry
	lru     entry // sentinel: lru.next is the most recently used, lru.prev the least
	budget  int64
	bytes   int64
	flights map[string]*flight

	hits, misses, evictions int64
	collapsed               int64 // lookups served by joining an in-flight compute
}

type entry struct {
	key        string
	val        any
	cost       int64
	prev, next *entry
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
		s.flights = make(map[string]*flight)
		s.clearLocked()
	}
	return c
}

// shardHash hashes the key for shard selection eight bytes a step, with
// fixed constants: a key picks the same shard in every process, so eviction
// patterns repeat from run to run.
func shardHash(s string) uint32 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(s)) * m
	for ; len(s) >= 8; s = s[8:] {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = (h ^ w) * m
		h ^= h >> 32
	}
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * m
	}
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return uint32(h ^ h>>32)
}

func (c *Cache) shard(key string) *shard {
	return &c.shards[shardHash(key)&c.mask]
}

// Get returns the cached value for key, if present, marking it
// most-recently-used.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	v, ok := s.getLocked(key)
	if !ok {
		s.misses++
	}
	s.mu.Unlock()
	return v, ok
}

// Put inserts (or replaces) key with the given value and cost. A cost the
// shard's whole budget could not hold is refused: nothing is stored, no
// resident is evicted to make room that could never be enough, and a value
// already under key is dropped (it is no longer what key holds).
func (c *Cache) Put(key string, v any, cost int64) {
	s := c.shard(key)
	s.mu.Lock()
	s.insertLocked(key, v, cost)
	s.mu.Unlock()
}

// Holds reports whether the cache could keep a value of the given cost: a
// cost that is not negative and that, with the per-entry overhead, fits a
// shard's budget. A compute that prepares something only a kept value
// needs asks first.
func (c *Cache) Holds(cost int64) bool {
	return cost >= 0 && cost+entryOverhead <= c.shards[0].budget
}

// DoCtx returns the cached value for key, or computes it exactly once
// across concurrent callers. compute returns (value, cost, err): on err the
// value is handed to every waiting caller but never cached; on success the
// value is cached unless cost is negative (the caller's "do not cache"
// signal) or more than a shard can hold — still shared with concurrent
// waiters.
//
// A waiter whose ctx is done returns ctx.Err() promptly instead of
// blocking on the flight leader. The leader itself is NOT cancelled by a
// waiter's ctx — it runs compute to completion and still populates the
// cache, so one abandoned client cannot poison the result for the callers
// that stayed. (A leader whose own compute observes its ctx — as the
// engine's governed computes do — fails with an error, which is never
// cached.) A compute that panics caches nothing, hands its waiters an
// error wrapping the panic value, and re-panics in the leader.
func (c *Cache) DoCtx(ctx context.Context, key string, compute func() (v any, cost int64, err error)) (any, error) {
	s := c.shard(key)
	s.mu.Lock()
	if v, ok := s.getLocked(key); ok {
		s.mu.Unlock()
		return v, nil
	}
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
			s.mu.Lock()
			s.collapsed++
			if f.err == nil { // a failed or panicked compute served nothing
				s.hits++
			}
			s.mu.Unlock()
			return f.val, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.misses++
	s.mu.Unlock()

	// Settle the flight however compute ends, a panic included: a flight
	// left registered and open blocks every later caller of key until its
	// own deadline.
	cost := int64(-1)
	defer func() {
		p := recover()
		if p != nil {
			f.err = panicError(p)
		}
		s.mu.Lock()
		delete(s.flights, key)
		if f.err == nil && cost >= 0 {
			s.insertLocked(key, f.val, cost)
		}
		s.mu.Unlock()
		close(f.done)
		if p != nil {
			panic(p)
		}
	}()
	f.val, cost, f.err = compute()
	return f.val, f.err
}

// panicError is what the waiters of a compute that panicked with p receive.
func panicError(p any) error {
	if err, ok := p.(error); ok {
		return fmt.Errorf("rescache: compute panicked: %w", err)
	}
	return fmt.Errorf("rescache: compute panicked: %v", p)
}

// getLocked returns key's value, moves its entry to the front of the list
// and counts the hit. Caller holds s.mu.
func (s *shard) getLocked(key string) (any, bool) {
	e, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.hits++
	unlink(e)
	s.pushFront(e)
	return e.val, true
}

// insertLocked links a new entry for key at the front, replacing any entry
// already under key, then evicts from the tail until the shard is back
// under budget. An entry that alone exceeds the budget is refused (and the
// old one dropped) before anything moves. Caller holds s.mu.
func (s *shard) insertLocked(key string, v any, cost int64) {
	cost = max(cost, 0) + entryOverhead
	s.removeLocked(key)
	if cost > s.budget {
		return
	}
	e := &entry{key: key, val: v, cost: cost}
	s.items[key] = e
	s.pushFront(e)
	s.bytes += cost
	// The new entry alone fits, so the loop stops before reaching it.
	for s.bytes > s.budget {
		s.drop(s.lru.prev)
		s.evictions++
	}
}

func (s *shard) pushFront(e *entry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

func unlink(e *entry) { e.prev.next, e.next.prev = e.next, e.prev }

// drop removes a resident entry from the map, the list and the byte count.
func (s *shard) drop(e *entry) {
	unlink(e)
	delete(s.items, e.key)
	s.bytes -= e.cost
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
	e, ok := s.items[key]
	if ok {
		s.drop(e)
	}
	return ok
}

// clearLocked empties the shard: a fresh map (so a purge releases the old
// one's buckets) and an empty list.
func (s *shard) clearLocked() {
	s.items = make(map[string]*entry)
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	s.bytes = 0
}

// Purge drops every cached entry (in-flight computes are unaffected).
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.clearLocked()
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.Stats().Entries }

// Bytes returns the total charged cost of cached entries (including the
// per-entry overhead).
func (c *Cache) Bytes() int64 { return c.Stats().Bytes }

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
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Collapsed += s.collapsed
		st.Entries += len(s.items)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
