package store

// Group-commit suite: concurrent writers must coalesce into shared WAL
// writes and fsyncs without weakening any durability promise — every
// acknowledged Put survives reopen, a failed batch fsync fails every
// waiter in the batch and degrades the store, and acknowledgment never
// precedes the batch's fsync.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"pxml/internal/fixtures"
	"pxml/internal/metrics"
	"pxml/internal/vfs"
)

func TestGroupCommitFaultFsyncMidBatch(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	reg := metrics.NewRegistry()
	s, _ := open(t, dir, Options{
		Fsync:       FsyncAlways,
		FS:          ffs,
		Registry:    reg,
		CommitBatch: 64,
		CommitDelay: 20 * time.Millisecond,
	})
	defer s.Close()
	fig := fixtures.Figure2()
	mustPut(t, s, "keep", fig)

	// Every fsync now fails; the concurrent Puts below coalesce into one
	// (or very few) batches, and the batch's fsync error must reach every
	// waiter — not just the one whose record happened to trigger it.
	ffs.FailAll(vfs.OpSync, "wal")
	const writers = 6
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Put(fmt.Sprintf("w%d", i), fig)
		}(i)
	}
	wg.Wait()

	injected := 0
	for i, err := range errs {
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("writer %d: err = %v, want ErrDegraded", i, err)
		}
		if errors.Is(err, vfs.ErrInjected) {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("no waiter saw the injected fsync cause")
	}
	if h := s.Health(); !h.Degraded {
		t.Fatalf("store should be degraded, health = %+v", h)
	}
	for i := 0; i < writers; i++ {
		if _, ok := s.Get(fmt.Sprintf("w%d", i)); ok {
			t.Fatalf("w%d installed despite failed batch fsync", i)
		}
	}
	wantInstance(t, s, "keep", fig)
}

func TestGroupCommitCoalescesConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, _ := open(t, dir, Options{
		Fsync:       FsyncAlways,
		Registry:    reg,
		CommitDelay: 50 * time.Millisecond,
	})
	defer s.Close()

	const writers = 16
	fig := fixtures.Figure2()
	batchesBefore := reg.Counter("store_commit_batches").Value()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mustPut(t, s, fmt.Sprintf("w%d", i), fig)
		}(i)
	}
	wg.Wait()

	batches := reg.Counter("store_commit_batches").Value() - batchesBefore
	if batches >= writers {
		t.Fatalf("%d writers took %d batches — no coalescing", writers, batches)
	}
	hist := reg.IntHistogram("store_commit_batch_size").Snapshot()
	if hist.Max < 2 {
		t.Fatalf("max batch size = %d, want >= 2\n%+v", hist.Max, hist)
	}
	// Per-record accounting is preserved even when records share a write.
	if n := reg.Counter("store_wal_appends").Value(); n != writers {
		t.Fatalf("store_wal_appends = %d, want %d", n, writers)
	}
}

func TestGroupCommitDurableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{
		Fsync:       FsyncAlways,
		CommitDelay: 5 * time.Millisecond,
	})
	const writers, each = 4, 8
	fig := fixtures.Figure2()
	varied := fixtures.Figure2VariedLeaves()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				pi := fig
				if (w+i)%2 == 1 {
					pi = varied
				}
				mustPut(t, s, name, pi)
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, report := open(t, dir, Options{})
	defer re.Close()
	if len(report.Quarantined) != 0 || report.TruncatedBytes != 0 {
		t.Fatalf("recovery not clean: %+v", report)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			name := fmt.Sprintf("w%d-%d", w, i)
			want := fig
			if (w+i)%2 == 1 {
				want = varied
			}
			wantInstance(t, re, name, want)
		}
	}
}

// TestEveryGroupCommitIsStamped: a store opened with zero Options writes
// one wall-clock stamp ahead of every group commit, and a follower
// applying its stream learns the newest one.
func TestEveryGroupCommitIsStamped(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{})
	defer s.Close()
	fig := fixtures.Figure2()
	before := time.Now().UnixNano()
	for i := 0; i < 4; i++ {
		mustPut(t, s, fmt.Sprintf("inst-%d", i), fig)
	}
	if _, err := s.Delete("inst-0"); err != nil {
		t.Fatal(err)
	}
	after := time.Now().UnixNano()

	data, err := os.ReadFile(activeSegmentPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	var ops []byte
	var last int64
	if _, err := scanFrames(data, func(_ int64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		ops = append(ops, rec.op)
		if rec.op == opStamp {
			if rec.ts < before || rec.ts > after || rec.ts < last {
				t.Errorf("stamp %d outside [%d, %d] or before the previous %d", rec.ts, before, after, last)
			}
			last = rec.ts
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Each mutation waited for its own commit, so each is a batch of one.
	want := []byte{opStamp, opPut, opStamp, opPut, opStamp, opPut, opStamp, opPut, opStamp, opDelete}
	if !bytes.Equal(ops, want) {
		t.Fatalf("WAL record ops = %v, want %v", ops, want)
	}

	follower, _ := open(t, t.TempDir(), Options{Follower: true})
	defer follower.Close()
	replicate(t, s, follower, 0)
	if got := follower.LastReplStamp(); got != last {
		t.Fatalf("follower LastReplStamp = %d, want the leader's last stamp %d", got, last)
	}
}

func TestCommitBatchOneDisablesBatching(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, _ := open(t, dir, Options{Fsync: FsyncAlways, Registry: reg, CommitBatch: 1})
	defer s.Close()
	fig := fixtures.Figure2()
	for i := 0; i < 3; i++ {
		mustPut(t, s, fmt.Sprintf("x%d", i), fig)
	}
	if n := reg.Counter("store_commit_batches").Value(); n != 3 {
		t.Fatalf("commit batches = %d, want 3 (one per Put)", n)
	}
	if hist := reg.IntHistogram("store_commit_batch_size").Snapshot(); hist.Max != 1 {
		t.Fatalf("max batch size = %d, want 1", hist.Max)
	}
}
