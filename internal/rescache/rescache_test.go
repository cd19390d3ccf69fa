package rescache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1, 10)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	c.Put("a", 2, 10)
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("replace: got %v, want 2", v)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard so the LRU order is global and deterministic.
	c := NewSharded(3*(100+entryOverhead), 1)
	c.Put("a", "a", 100)
	c.Put("b", "b", 100)
	c.Put("c", "c", 100)
	c.Get("a") // promote a; b is now LRU
	c.Put("d", "d", 100)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestByteBudget(t *testing.T) {
	c := NewSharded(10*(64+entryOverhead), 1)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 64)
	}
	if n := c.Len(); n != 10 {
		t.Fatalf("Len = %d, want 10", n)
	}
	if b, max := c.Bytes(), int64(10*(64+entryOverhead)); b > max {
		t.Fatalf("Bytes = %d, over budget %d", b, max)
	}
}

// TestOversizedEntryLeavesShardAlone: a result no shard could hold is
// refused outright. It must not flush the residents on its way out (it used
// to evict every one of them, then itself), it counts no eviction, and
// concurrent waiters of the compute that produced it still share it.
func TestOversizedEntryLeavesShardAlone(t *testing.T) {
	c := NewSharded(10*(64+entryOverhead), 1)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 64)
	}
	before := c.Stats()
	c.Put("huge", "x", 1<<30)
	v, err := c.DoCtx(context.Background(), "huger", func() (any, int64, error) { return "y", 1 << 30, nil })
	if err != nil || v != "y" {
		t.Fatalf("Do(huger) = %v, %v; the caller still gets its value", v, err)
	}
	for _, k := range []string{"huge", "huger"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("oversized entry %q retained", k)
		}
	}
	after := c.Stats()
	if after.Evictions != before.Evictions || after.Entries != 10 || after.Bytes != before.Bytes {
		t.Fatalf("oversized entries disturbed the shard: %+v then %+v", before, after)
	}
	for i := 0; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("resident k%d gone", i)
		}
	}
	// Replacing a resident with a value that cannot fit drops the resident:
	// the key no longer holds what it held.
	c.Put("k0", "x", 1<<30)
	if _, ok := c.Get("k0"); ok {
		t.Error("k0 still answers its old value after an oversized replace")
	}

	// A zero budget (the server's ResultCacheBytes: 1) stores nothing and
	// evicts nothing, however many misses pass through.
	z := New(1)
	for i := 0; i < 100; i++ {
		z.DoCtx(context.Background(), fmt.Sprintf("k%d", i), func() (any, int64, error) { return i, 8, nil })
	}
	if st := z.Stats(); st.Entries != 0 || st.Evictions != 0 || st.Misses != 100 {
		t.Fatalf("zero-budget cache: %+v, want 100 misses and nothing else", st)
	}
}

func TestDoCachesSuccess(t *testing.T) {
	c := New(1 << 20)
	calls := 0
	compute := func() (any, int64, error) { calls++; return 42, 8, nil }
	for i := 0; i < 3; i++ {
		v, err := c.DoCtx(context.Background(), "k", compute)
		if err != nil || v.(int) != 42 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	calls := 0
	if _, err := c.DoCtx(context.Background(), "k", func() (any, int64, error) { calls++; return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if v, err := c.DoCtx(context.Background(), "k", func() (any, int64, error) { calls++; return 7, 8, nil }); err != nil || v.(int) != 7 {
		t.Fatalf("retry = %v, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

func TestDoNegativeCostNotCached(t *testing.T) {
	c := New(1 << 20)
	calls := 0
	compute := func() (any, int64, error) { calls++; return "big", -1, nil }
	for i := 0; i < 2; i++ {
		if v, err := c.DoCtx(context.Background(), "k", compute); err != nil || v.(string) != "big" {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (negative cost must not cache)", calls)
	}
}

func TestSingleflightCollapse(t *testing.T) {
	c := New(1 << 20)
	const waiters = 16
	var calls atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.DoCtx(context.Background(), "k", func() (any, int64, error) {
				calls.Add(1)
				<-gate // hold the flight open so everyone piles on
				return "shared", 8, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			vals[i] = v
		}(i)
	}
	// Let the goroutines reach the flight, then release the leader.
	for c.Stats().Misses == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times under concurrency, want 1", n)
	}
	for i, v := range vals {
		if v.(string) != "shared" {
			t.Fatalf("waiter %d got %v", i, v)
		}
	}
}

func TestRemoveAndPurge(t *testing.T) {
	c := New(1 << 20)
	c.Put("a", 1, 8)
	c.Put("b", 2, 8)
	if !c.Remove("a") || c.Remove("a") {
		t.Fatal("Remove should report presence exactly once")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a still present after Remove")
	}
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("after Purge: Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
}

func TestConcurrentMixed(t *testing.T) {
	c := NewSharded(64<<10, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%64)
				switch i % 3 {
				case 0:
					c.Put(k, i, int64(i%256))
				case 1:
					c.Get(k)
				default:
					c.DoCtx(context.Background(), k, func() (any, int64, error) { return i, 32, nil })
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Fatal("expected surviving entries")
	}
}
