package rescache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refLRU is the reference FuzzCacheDifferential holds the cache to: per
// shard, a slice of entries ordered least recently used first and a byte
// budget, with every operation a linear scan.
type refLRU struct {
	shards                  [][]refEntry
	mask                    uint32
	budget                  int64
	hits, misses, evictions int64
}

type refEntry struct {
	key  string
	val  int
	cost int64
}

func (r *refLRU) shard(key string) *[]refEntry { return &r.shards[fnv32a(key)&r.mask] }

func (r *refLRU) index(key string) int {
	return slices.IndexFunc(*r.shard(key), func(e refEntry) bool { return e.key == key })
}

func (r *refLRU) get(key string) (int, bool) {
	i := r.index(key)
	if i < 0 {
		r.misses++
		return 0, false
	}
	r.hits++
	sh := r.shard(key)
	e := (*sh)[i]
	*sh = append(slices.Delete(*sh, i, i+1), e)
	return e.val, true
}

func (r *refLRU) remove(key string) bool {
	i := r.index(key)
	if i >= 0 {
		sh := r.shard(key)
		*sh = slices.Delete(*sh, i, i+1)
	}
	return i >= 0
}

func (r *refLRU) put(key string, val int, cost int64) {
	r.remove(key)
	if cost = max(cost, 0) + entryOverhead; cost > r.budget {
		return
	}
	sh := r.shard(key)
	*sh = append(*sh, refEntry{key, val, cost})
	for refBytes(*sh) > r.budget {
		*sh = (*sh)[1:]
		r.evictions++
	}
}

// do is DoCtx run serially: a hit answers, a miss computes val and caches it
// unless the compute failed or cost is negative.
func (r *refLRU) do(key string, val int, cost int64, fail bool) (int, bool) {
	if v, ok := r.get(key); ok {
		return v, true
	}
	if fail {
		return 0, false
	}
	if cost >= 0 {
		r.put(key, val, cost)
	}
	return val, true
}

func refBytes(sh []refEntry) (n int64) {
	for _, e := range sh {
		n += e.cost
	}
	return n
}

var errCompute = errors.New("compute failed")

// FuzzCacheDifferential runs a byte-coded sequence of Put, Get, DoCtx
// (succeeding, failing, or with a negative cost), Remove and Purge on a
// cache of one or two shards and on refLRU, and after every step requires
// the same answer, the same residents in the same recency order with the
// same values and costs, and the same counters and byte total.
//
// Input: byte 0 picks the shard count (1 + b&1), byte 1 the per-shard
// budget (16·b), then three bytes per step: operation, key (one of 12) and
// cost (4·b − 32, so negative and over-budget costs both occur).
func FuzzCacheDifferential(f *testing.F) {
	f.Add([]byte{0, 40, 0, 1, 20, 0, 2, 20, 0, 3, 20, 3, 1, 0, 0, 4, 20})
	f.Add([]byte{1, 0, 0, 1, 20, 5, 2, 20, 3, 2, 0})
	f.Add([]byte{1, 255, 5, 1, 0, 5, 1, 0, 7, 2, 9, 9, 0, 0, 8, 1, 0})
	rng := rand.New(rand.NewSource(29))
	for _, budget := range []byte{8, 20, 64, 255} {
		for shards := byte(0); shards < 2; shards++ {
			seed := []byte{shards, budget}
			for i := 0; i < 600; i++ {
				seed = append(seed, byte(rng.Intn(256)))
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		shards, per := 1+int(data[0]&1), int64(data[1])*16
		c := NewSharded(per*int64(shards), shards)
		ref := &refLRU{shards: make([][]refEntry, shards), mask: uint32(shards - 1), budget: per}
		ctx := context.Background()
		for step, op := 0, data[2:]; len(op) >= 3; step, op = step+1, op[3:] {
			key, cost := fmt.Sprintf("k%d", op[1]%12), int64(op[2])*4-32
			var what string
			switch op[0] % 10 {
			case 0, 1, 2:
				what = "Put"
				c.Put(key, step, cost)
				ref.put(key, step, cost)
			case 3, 4:
				what = "Get"
				v, ok := c.Get(key)
				want, wantOK := ref.get(key)
				if ok != wantOK || ok && v.(int) != want {
					t.Fatalf("step %d: Get(%s) = %v, %v; want %v, %v", step, key, v, ok, want, wantOK)
				}
			case 5, 6, 7:
				fail := op[0]%10 == 7
				what = fmt.Sprintf("DoCtx(fail=%v)", fail)
				v, err := c.DoCtx(ctx, key, func() (any, int64, error) {
					if fail {
						return nil, 0, errCompute
					}
					return step, cost, nil
				})
				want, wantOK := ref.do(key, step, cost, fail)
				if (err == nil) != wantOK || err == nil && v.(int) != want {
					t.Fatalf("step %d: DoCtx(%s) = %v, %v; want %v, ok %v", step, key, v, err, want, wantOK)
				}
			case 8:
				what = "Remove"
				if got, want := c.Remove(key), ref.remove(key); got != want {
					t.Fatalf("step %d: Remove(%s) = %v, want %v", step, key, got, want)
				}
			case 9:
				what = "Purge"
				c.Purge()
				for i := range ref.shards {
					ref.shards[i] = nil
				}
			}
			checkAgainst(t, fmt.Sprintf("step %d (%s %s, cost %d)", step, what, key, cost), c, ref)
		}
	})
}

// checkAgainst compares every shard's list, least recently used first, and
// map with the reference, then the counters.
func checkAgainst(t *testing.T, at string, c *Cache, ref *refLRU) {
	t.Helper()
	var want Stats
	for i := range c.shards {
		s := &c.shards[i]
		var got []refEntry
		for e := s.lru.prev; e != &s.lru; e = e.prev {
			if e.next.prev != e || s.items[e.key] != e {
				t.Fatalf("%s: shard %d: entry %s is not linked both ways and mapped", at, i, e.key)
			}
			got = append(got, refEntry{e.key, e.val.(int), e.cost})
		}
		if !slices.Equal(got, ref.shards[i]) || len(s.items) != len(got) || s.bytes != refBytes(got) || len(s.flights) != 0 {
			t.Fatalf("%s: shard %d holds %v (%d mapped, %d bytes, %d flights); want %v", at, i, got, len(s.items), s.bytes, len(s.flights), ref.shards[i])
		}
		want.Entries += len(got)
		want.Bytes += refBytes(got)
	}
	want.Hits, want.Misses, want.Evictions = ref.hits, ref.misses, ref.evictions
	if st := c.Stats(); st != want || c.Bytes() != want.Bytes {
		t.Fatalf("%s: Stats %+v, Bytes %d; want %+v", at, st, c.Bytes(), want)
	}
}

// resultValue is what the cost tests insert: a pointer, which becomes an
// interface without allocating.
var resultValue any = new(int)

// fullShard returns a one-shard cache filled to its budget with entries
// entries of cost 8, and twice that many keys: inserting keys[i%len(keys)]
// for i = entries, entries+1, … never finds the key resident, so each
// insert evicts exactly one entry.
func fullShard(entries int) (*Cache, []string) {
	c := NewSharded(int64(entries)*(8+entryOverhead), 1)
	keys := make([]string, 2*entries)
	for i := range keys {
		keys[i] = fmt.Sprintf("inst@%d\x00PROB R.a.b = o%d", i%7, i)
	}
	for _, k := range keys[:entries] {
		c.Put(k, resultValue, 8)
	}
	return c, keys
}

// TestInsertAllocsFlat: an insert into a full shard allocates its entry and
// nothing in proportion to what the shard holds — the same at 100 entries
// as at 4 000. Counted, not timed.
func TestInsertAllocsFlat(t *testing.T) {
	allocs := func(entries int) float64 {
		c, keys := fullShard(entries)
		i := entries
		n := testing.AllocsPerRun(500, func() {
			c.Put(keys[i%len(keys)], resultValue, 8)
			i++
		})
		if st := c.Stats(); st.Entries != entries || st.Evictions != int64(i-entries) {
			t.Fatalf("%d entries: %+v after %d inserts; want the shard full and one eviction per insert", entries, st, i-entries)
		}
		return n
	}
	small, large := allocs(100), allocs(4000)
	if small != large || large > 1 {
		t.Fatalf("an evicting insert allocates %v times into a shard of 100 entries and %v into one of 4 000; want the same, at most 1", small, large)
	}
}

// BenchmarkInsertFull times an evicting insert into a full shard at two
// sizes 40 times apart. The work is the same at both; the larger working
// set only costs cache misses.
func BenchmarkInsertFull(b *testing.B) {
	for _, entries := range []int{100, 4000} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			c, keys := fullShard(entries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := entries; i < entries+b.N; i++ {
				c.Put(keys[i%len(keys)], resultValue, 8)
			}
		})
	}
}
