// Package rescache is a sharded, size-bounded LRU result cache with
// singleflight collapse, built for memoizing query results keyed by
// (instance version, query fingerprint). Concurrent lookups of the same
// missing key share one computation: the first caller becomes the leader
// and runs the compute function, later callers block until the leader
// finishes and receive the same value (or error). Errors are never
// cached — the next caller retries.
//
// A key is a namespace and a statement within it (Do). The cache never
// returns a stale entry for a key it was given; staleness is the caller's
// concern and is handled by versioned namespaces: name a monotonically
// increasing instance version in the namespace and bump it on every
// mutation, so entries for the old version become unreachable and age out
// of the LRU naturally. A statement is looked up by its bytes, which a hit
// never copies.
//
// A key is hashed to one of a power-of-two number of shards, each with its
// own byte budget and its own mutex. A shard is a map from key to entry
// plus an intrusive doubly-linked list of the same entries in recency
// order, both guarded by that mutex: a hit moves its entry to the front, an
// insert links one entry and unlinks from the tail until the shard is back
// under budget, and a removal unlinks. Every operation is O(1), nothing is
// copied, and the order is exact LRU under any interleaving. All methods
// are safe for concurrent use.
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
	items   map[key]*entry
	lru     entry // sentinel: lru.next is the most recently used, lru.prev the least
	budget  int64
	bytes   int64
	flights map[key]*flight

	hits, misses, evictions int64
	collapsed               int64 // lookups served by joining an in-flight compute
}

// key names an entry: a statement within a namespace. The string-keyed
// methods (Get, Put, DoCtx, Remove) use the empty namespace.
type key struct{ ns, stmt string }

type entry struct {
	key        key
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
		s.flights = make(map[key]*flight)
		s.clearLocked()
	}
	return c
}

// shardHash hashes a key for shard selection eight bytes a step, with
// fixed constants: a key picks the same shard in every process, so eviction
// patterns repeat from run to run. Both lengths enter the seed, so the
// same bytes split differently between namespace and statement hash
// differently.
func shardHash[S string | []byte](ns string, stmt S) uint32 {
	const m = 0x9e3779b97f4a7c15
	h := (uint64(len(ns))<<32 | uint64(len(stmt))) * m
	h = mix(mix(h, ns), stmt)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return uint32(h ^ h>>32)
}

// mix folds s into h.
func mix[S string | []byte](h uint64, s S) uint64 {
	const m = 0x9e3779b97f4a7c15
	for ; len(s) >= 8; s = s[8:] {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = (h ^ w) * m
		h ^= h >> 32
	}
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * m
	}
	return h
}

func (c *Cache) shard(k key) *shard {
	return &c.shards[shardHash(k.ns, k.stmt)&c.mask]
}

// Get returns the value cached under k in the empty namespace, if present,
// marking it most-recently-used.
func (c *Cache) Get(k string) (any, bool) {
	s := c.shard(key{stmt: k})
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key{stmt: k}]
	if !ok {
		s.misses++
		return nil, false
	}
	return s.hitLocked(e), true
}

// Put inserts (or replaces) k in the empty namespace with the given value
// and cost. A cost the shard's whole budget could not hold is refused:
// nothing is stored, no resident is evicted to make room that could never
// be enough, and a value already under k is dropped (it is no longer what k
// holds).
func (c *Cache) Put(k string, v any, cost int64) {
	s := c.shard(key{stmt: k})
	s.mu.Lock()
	s.insertLocked(key{stmt: k}, v, cost)
	s.mu.Unlock()
}

// Holds reports whether the cache could keep a value of the given cost: a
// cost that is not negative and that, with the per-entry overhead, fits a
// shard's budget. A compute that prepares something only a kept value
// needs asks first.
func (c *Cache) Holds(cost int64) bool {
	return cost >= 0 && cost+entryOverhead <= c.shards[0].budget
}

// DoCtx is Do for the key string in the empty namespace, under ctx.
func (c *Cache) DoCtx(ctx context.Context, k string, compute func() (v any, cost int64, err error)) (any, error) {
	v, _, err := Do(c, "", k, func() context.Context { return ctx },
		func(context.Context, string) (any, int64, error) { return compute() })
	return v, err
}

// Found is how a Do call came by its value.
type Found int

const (
	// Resident: the cache held the value.
	Resident Found = iota
	// Joined: another caller's compute, which this one waited for, produced
	// the value or the error (or this caller gave up waiting).
	Joined
	// Computed: this caller's compute produced the value or the error.
	Computed
)

// Do returns the value cached under stmt in namespace ns, or computes it
// exactly once across concurrent callers, and reports how it came by it. A
// Resident value is found by the statement's bytes, which are not copied;
// ctx is then never called. A caller that finds nothing resident calls ctx
// once, for the context it waits on another caller's compute under or
// hands its own compute, and that compute receives the statement as a
// string: the one copy of it the entry keeps.
//
// compute returns (value, cost, err): on err the value is handed to every
// waiting caller but never cached; on success the value is cached unless
// cost is negative (the caller's "do not cache" signal) or more than a
// shard can hold — still shared with concurrent waiters.
//
// A waiter whose context is done returns its error promptly instead of
// blocking on the flight leader. The leader itself is NOT cancelled by a
// waiter's context — it runs compute to completion and still populates the
// cache, so one abandoned client cannot poison the result for the callers
// that stayed. (A leader whose own compute observes its context — as the
// engine's governed computes do — fails with an error, which is never
// cached.) A compute that panics caches nothing, hands its waiters an
// error wrapping the panic value, and re-panics in the leader.
//
// A nil cache holds nothing and collapses nothing: every call computes.
func Do[S string | []byte](c *Cache, ns string, stmt S, ctx func() context.Context, compute func(ctx context.Context, stmt string) (v any, cost int64, err error)) (v any, found Found, err error) {
	if c == nil {
		v, _, err = compute(ctx(), string(stmt))
		return v, Computed, err
	}
	s := &c.shards[shardHash(ns, stmt)&c.mask]
	s.mu.Lock()
	// The conversion in the index expression copies nothing.
	if e, ok := s.items[key{ns, string(stmt)}]; ok {
		v = s.hitLocked(e)
		s.mu.Unlock()
		return v, Resident, nil
	}
	k := key{ns, string(stmt)}
	if f, ok := s.flights[k]; ok {
		s.mu.Unlock()
		v, err = s.wait(ctx(), f)
		return v, Joined, err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[k] = f
	s.misses++
	s.mu.Unlock()
	s.lead(ctx, k, f, compute)
	return f.val, Computed, f.err
}

// wait returns what the flight f leads to, or ctx's error if ctx is done
// first.
func (s *shard) wait(ctx context.Context, f *flight) (any, error) {
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

// lead runs compute under ctx() for the flight f registered under k and
// settles the flight however that ends, a panic included: a flight left
// registered and open blocks every later caller of k until its own
// deadline.
func (s *shard) lead(ctx func() context.Context, k key, f *flight, compute func(context.Context, string) (any, int64, error)) {
	cost := int64(-1)
	defer func() {
		p := recover()
		if p != nil {
			f.err = panicError(p)
		}
		s.mu.Lock()
		delete(s.flights, k)
		if f.err == nil && cost >= 0 {
			s.insertLocked(k, f.val, cost)
		}
		s.mu.Unlock()
		close(f.done)
		if p != nil {
			panic(p)
		}
	}()
	f.val, cost, f.err = compute(ctx(), k.stmt)
}

// panicError is what the waiters of a compute that panicked with p receive.
func panicError(p any) error {
	if err, ok := p.(error); ok {
		return fmt.Errorf("rescache: compute panicked: %w", err)
	}
	return fmt.Errorf("rescache: compute panicked: %v", p)
}

// hitLocked returns the resident e's value, moves e to the front of the
// list and counts the hit. Caller holds s.mu.
func (s *shard) hitLocked(e *entry) any {
	s.hits++
	unlink(e)
	s.pushFront(e)
	return e.val
}

// insertLocked links a new entry for key at the front, replacing any entry
// already under key, then evicts from the tail until the shard is back
// under budget. An entry that alone exceeds the budget is refused (and the
// old one dropped) before anything moves. Caller holds s.mu.
func (s *shard) insertLocked(k key, v any, cost int64) {
	cost = max(cost, 0) + entryOverhead
	s.removeLocked(k)
	if cost > s.budget {
		return
	}
	e := &entry{key: k, val: v, cost: cost}
	s.items[k] = e
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

// Remove drops k in the empty namespace from the cache, reporting whether
// it was present.
// In-flight computes for the key are unaffected.
func (c *Cache) Remove(k string) bool {
	s := c.shard(key{stmt: k})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.removeLocked(key{stmt: k})
}

func (s *shard) removeLocked(k key) bool {
	e, ok := s.items[k]
	if ok {
		s.drop(e)
	}
	return ok
}

// clearLocked empties the shard: a fresh map (so a purge releases the old
// one's buckets) and an empty list.
func (s *shard) clearLocked() {
	s.items = make(map[key]*entry)
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
