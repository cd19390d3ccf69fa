package store

// Fault-injection suite: every failure here is produced deterministically
// by a vfs.FaultFS, not by killing processes. The matrix covers failed
// and torn WAL appends under Put, snapshot write/fsync/rename failures
// under Compact, a failing final flush under Close, and the background
// loop's retry-then-degrade escalation — asserting in each case that the
// store either recovers cleanly on reopen or degrades read-only instead
// of corrupting.

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"testing"
	"time"

	"pxml/internal/fixtures"
	"pxml/internal/metrics"
	"pxml/internal/vfs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

func TestPutFsyncFailureDegradesStore(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	reg := metrics.NewRegistry()
	s, _ := open(t, dir, Options{Fsync: FsyncAlways, FS: ffs, Registry: reg})
	defer s.Close()
	fig := fixtures.Figure2()
	mustPut(t, s, "keep", fig)

	ffs.FailAll(vfs.OpSync, "wal")
	err := s.Put("lost", fixtures.Figure2VariedLeaves())
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put with failing fsync = %v, want ErrDegraded", err)
	}
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("degrading error should carry the injected cause, got %v", err)
	}

	// Sticky: later writes are rejected outright, reads keep serving.
	if err := s.Put("more", fig); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second Put = %v, want ErrDegraded", err)
	}
	if _, err := s.Delete("keep"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Delete = %v, want ErrDegraded", err)
	}
	wantInstance(t, s, "keep", fig)
	if _, ok := s.Get("lost"); ok {
		t.Fatal("rejected Put must not install in the catalog")
	}

	h := s.Health()
	if !h.Degraded || h.Reason == "" || h.DegradedSince == "" {
		t.Fatalf("health = %+v, want degraded with reason and timestamp", h)
	}
	if h.FsyncErrors == 0 || h.LastError == "" {
		t.Fatalf("health should count the fsync error: %+v", h)
	}
	if got := reg.Gauge("store_degraded").Value(); got != 1 {
		t.Fatalf("store_degraded gauge = %d, want 1", got)
	}
	if got := reg.Counter("store_fsync_errors").Value(); got == 0 {
		t.Fatal("store_fsync_errors counter not incremented")
	}
}

func TestBackgroundFsyncRetriesThenDegrades(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	reg := metrics.NewRegistry()
	s, _ := open(t, dir, Options{
		Fsync: FsyncInterval, FsyncEvery: 10 * time.Millisecond,
		FS: ffs, Registry: reg,
	})
	defer s.Close()
	ffs.FailAll(vfs.OpSync, "wal")
	mustPut(t, s, "a", fixtures.Figure2()) // dirties the WAL, no foreground fsync

	waitFor(t, 15*time.Second, "store to degrade", s.Degraded)
	if err := s.Put("b", fixtures.Figure2()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put after degradation = %v, want ErrDegraded", err)
	}
	h := s.Health()
	if h.FsyncErrors < int64(bgMaxAttempts) {
		t.Fatalf("fsync_errors = %d, want >= %d (one per retry attempt)", h.FsyncErrors, bgMaxAttempts)
	}
	if got := reg.Counter("store_bg_retries").Value(); got == 0 {
		t.Fatal("store_bg_retries counter not incremented")
	}
}

func TestBackgroundFsyncTransientErrorRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	reg := metrics.NewRegistry()
	s, _ := open(t, dir, Options{
		Fsync: FsyncInterval, FsyncEvery: 10 * time.Millisecond,
		FS: ffs, Registry: reg,
	})
	defer s.Close()
	// The first two flushes fail, then the disk "heals".
	ffs.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal", Times: 2})
	mustPut(t, s, "a", fixtures.Figure2())

	waitFor(t, 15*time.Second, "a successful wal fsync", func() bool {
		return reg.Counter("store_wal_fsyncs").Value() > 0
	})
	if s.Degraded() {
		t.Fatal("transient fsync errors must not degrade the store")
	}
	if h := s.Health(); h.FsyncErrors != 2 {
		t.Fatalf("fsync_errors = %d, want 2", h.FsyncErrors)
	}
	// The store keeps accepting writes afterwards.
	mustPut(t, s, "b", fixtures.Figure2VariedLeaves())
}

func TestCompactFaultMatrix(t *testing.T) {
	cases := []struct {
		name string
		rule vfs.Rule
	}{
		{"snapshot write fails", vfs.Rule{Op: vfs.OpWrite, Path: snapshotName + ".tmp-"}},
		{"snapshot torn write", vfs.Rule{Op: vfs.OpWrite, Path: snapshotName + ".tmp-", ShortWrite: 7}},
		{"snapshot fsync fails", vfs.Rule{Op: vfs.OpSync, Path: snapshotName + ".tmp-"}},
		{"snapshot rename fails", vfs.Rule{Op: vfs.OpRename, Path: snapshotName}},
		{"dir fsync fails", vfs.Rule{Op: vfs.OpSyncDir}},
		{"sealed segment remove fails", vfs.Rule{Op: vfs.OpRemove, Path: segPrefix}},
		{"rotation open fails", vfs.Rule{Op: vfs.OpOpenAppend, Path: segPrefix}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(nil)
			s, _ := open(t, dir, Options{Fsync: FsyncNever, FS: ffs})
			fig := fixtures.Figure2()
			mustPut(t, s, "keep", fig)

			ffs.Inject(tc.rule)
			if err := s.Compact(); err == nil {
				t.Fatal("Compact with injected fault should fail")
			}
			// A foreground compaction failure is retryable: the store
			// stays healthy and writable, and the error is on record.
			if s.Degraded() {
				t.Fatal("foreground compaction failure must not degrade")
			}
			if h := s.Health(); h.CompactErrors == 0 {
				t.Fatalf("compact_errors = %d, want > 0", h.CompactErrors)
			}
			mustPut(t, s, "after", fig)

			// Once the fault clears, compaction succeeds and the full
			// catalog survives a reopen.
			ffs.Reset()
			if err := s.Compact(); err != nil {
				t.Fatalf("Compact after fault cleared: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s2, rep := open(t, dir, Options{})
			defer s2.Close()
			if len(rep.Quarantined) != 0 {
				t.Fatalf("reopen quarantined %d records after failed compactions", len(rep.Quarantined))
			}
			wantInstance(t, s2, "keep", fig)
			wantInstance(t, s2, "after", fig)
		})
	}
}

func TestBackgroundCompactionRetriesThenDegrades(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	s, _ := open(t, dir, Options{
		Fsync: FsyncNever, CompactThreshold: 1, FS: ffs,
	})
	defer s.Close()
	ffs.Inject(vfs.Rule{Op: vfs.OpRename, Path: snapshotName})
	// Any Put now crosses the 1-byte threshold and kicks compaction,
	// which fails at the rename every time.
	mustPut(t, s, "a", fixtures.Figure2())

	waitFor(t, 15*time.Second, "store to degrade", s.Degraded)
	h := s.Health()
	if h.CompactErrors < int64(bgMaxAttempts) {
		t.Fatalf("compact_errors = %d, want >= %d", h.CompactErrors, bgMaxAttempts)
	}
	// Reads still serve the whole catalog.
	wantInstance(t, s, "a", fixtures.Figure2())
}

// TestTornWALWriteRecoveryMatrix cuts a WAL append short at several byte
// offsets — inside the magic, inside the header, inside the payload, one
// byte shy of complete — and asserts that (a) the failed Put degrades
// the store rather than acking, and (b) a clean reopen truncates the
// torn tail and recovers exactly the acknowledged instances.
func TestTornWALWriteRecoveryMatrix(t *testing.T) {
	cuts := []int{1, 3, 5, 11, 13, 40}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(nil)
			s, _ := open(t, dir, Options{Fsync: FsyncNever, FS: ffs})
			fig := fixtures.Figure2()
			mustPut(t, s, "keep", fig)

			ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: segPrefix, ShortWrite: cut, Times: 1})
			err := s.Put("torn", fixtures.Figure2VariedLeaves())
			if !errors.Is(err, ErrDegraded) {
				t.Fatalf("torn Put = %v, want ErrDegraded", err)
			}
			_ = s.Close() // degraded close skips the doomed flush

			s2, rep := open(t, dir, Options{})
			defer s2.Close()
			if rep.TruncatedBytes != int64(cut) {
				t.Fatalf("recovery truncated %d bytes, want %d (report: %s)", rep.TruncatedBytes, cut, rep)
			}
			if len(rep.Quarantined) != 0 {
				t.Fatalf("torn tail should be truncated, not quarantined: %s", rep)
			}
			wantInstance(t, s2, "keep", fig)
			if _, ok := s2.Get("torn"); ok {
				t.Fatal("unacknowledged instance resurrected by recovery")
			}

			// The repaired store must be fully writable again.
			mustPut(t, s2, "torn", fixtures.Figure2VariedLeaves())
		})
	}
}

func TestCloseReportsFailedFinalFlush(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	s, _ := open(t, dir, Options{Fsync: FsyncNever, FS: ffs})
	mustPut(t, s, "a", fixtures.Figure2())

	ffs.FailAll(vfs.OpSync, "wal")
	if err := s.Close(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Close with failing final fsync = %v, want the injected error", err)
	}
	// Close is still idempotent after a failed flush.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}

	// FsyncNever means the data was acknowledged as maybe-lost; what must
	// still hold is that the bytes the OS kept are replayable.
	s2, _ := open(t, dir, Options{})
	defer s2.Close()
	wantInstance(t, s2, "a", fixtures.Figure2())
}

func TestInjectedWriteLatencyDoesNotCorrupt(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	s, _ := open(t, dir, Options{Fsync: FsyncAlways, FS: ffs})
	ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: segPrefix, Delay: 30 * time.Millisecond, Times: 1})

	start := time.Now()
	mustPut(t, s, "slow", fixtures.Figure2())
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("Put returned after %v, want >= 30ms of injected latency", d)
	}
	if s.Degraded() {
		t.Fatal("latency-only faults must not degrade")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := open(t, dir, Options{})
	defer s2.Close()
	wantInstance(t, s2, "slow", fixtures.Figure2())
}

func TestGroupCommitDiskFullDegradesStore(t *testing.T) {
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

	// The volume fills mid-storm: every allocating operation on the WAL
	// now returns ENOSPC, so the storm's first coalesced batch append
	// fails mid-group-commit. That must degrade the store and fail every
	// waiter in the batch — an ENOSPC'd WAL write may have landed a frame
	// prefix, so the store cannot pretend the log is still appendable.
	ffs.DiskFull("wal", 0)
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

	enospc := 0
	for i, err := range errs {
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("writer %d: err = %v, want ErrDegraded", i, err)
		}
		if errors.Is(err, syscall.ENOSPC) {
			enospc++
		}
	}
	if enospc == 0 {
		t.Fatal("no writer saw the ENOSPC cause; the batch error should carry it")
	}

	// Sticky read-only: later writes rejected, reads keep serving.
	if err := s.Put("more", fig); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put after disk full = %v, want ErrDegraded", err)
	}
	if _, err := s.Delete("keep"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Delete after disk full = %v, want ErrDegraded", err)
	}
	wantInstance(t, s, "keep", fig)
	h := s.Health()
	if !h.Degraded || h.Reason == "" {
		t.Fatalf("health = %+v, want degraded with reason", h)
	}
	if got := reg.Gauge("store_degraded").Value(); got != 1 {
		t.Fatalf("store_degraded gauge = %d, want 1", got)
	}

	// The full volume heals (space freed); reopening the same directory
	// must recover every acknowledged write and nothing else.
	ffs.Reset()
	if err := s.Close(); err == nil {
		t.Log("close after degrade returned nil (flush skipped)")
	}
	s2, _ := open(t, dir, Options{FS: ffs})
	defer s2.Close()
	wantInstance(t, s2, "keep", fig)
	for i := 0; i < writers; i++ {
		if _, ok := s2.Get(fmt.Sprintf("w%d", i)); ok {
			t.Fatalf("unacknowledged write w%d survived reopen", i)
		}
	}
}
