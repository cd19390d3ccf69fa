package store

// MVCC publication stress suite, meant to run under -race: point readers,
// catalog scanners, a 16-writer put/delete storm, follower ReplApply, and
// a mid-run degraded-mode flip all interleave, while every reader asserts
// the catalog invariants the epoch protocol guarantees — the observed
// epoch never goes backwards, per-name versions are monotone, Names stays
// sorted, and a Get that reports ok never hands back a nil instance.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"pxml/internal/fixtures"
	"pxml/internal/vfs"
)

const stressNames = 24

func stressName(i int) string { return fmt.Sprintf("st-%02d", i) }

// stressReaders starts point readers and one catalog scanner against s,
// returning a stop func that joins them and reports their invariant
// failures. Readers tolerate missing names (deletes race with them) but
// never a torn read.
func stressReaders(t *testing.T, s *Store, readers int) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			lastEpoch := uint64(0)
			lastVer := make(map[string]uint64, stressNames)
			for i := seed; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				name := stressName(i % stressNames)
				if e := s.CatalogEpoch(); e < lastEpoch {
					t.Errorf("catalog epoch went backwards: %d after %d", e, lastEpoch)
					return
				} else {
					lastEpoch = e
				}
				if v, ok := s.Version(name); ok {
					if v < lastVer[name] {
						t.Errorf("version for %q went backwards: %d after %d", name, v, lastVer[name])
						return
					}
					lastVer[name] = v
				}
				if pi, ok := s.Get(name); ok && pi == nil {
					t.Errorf("Get(%q) = nil, true: torn catalog read", name)
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			names := s.Names()
			if !sort.StringsAreSorted(names) {
				t.Errorf("Names() not sorted: %v", names)
				return
			}
			for name, pi := range s.All() {
				if pi == nil {
					t.Errorf("All() carries nil instance for %q", name)
					return
				}
			}
			_ = s.Len()
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestMVCCStressLeader interleaves 16 put/delete writers, concurrent
// point readers and scanners, and a mid-run fault-injected flip into
// degraded mode on a leader store.
func TestMVCCStressLeader(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	s, _, err := Open(dir, Options{Fsync: FsyncAlways, FS: ffs, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pi := fixtures.Figure2()
	for i := 0; i < stressNames; i++ {
		if err := s.Put(stressName(i), pi); err != nil {
			t.Fatal(err)
		}
	}

	stopReaders := stressReaders(t, s, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			alt := fixtures.Figure2VariedLeaves()
			for i := w; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				name := stressName(i % stressNames)
				var err error
				if w%4 == 3 && i%11 == 0 {
					_, err = s.Delete(name)
				} else {
					err = s.Put(name, alt)
				}
				if err != nil && !errors.Is(err, ErrDegraded) {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	// Flip the store read-only mid-storm: the next synced commit fails,
	// writers start seeing ErrDegraded, readers must not notice.
	ffs.FailAll(vfs.OpSync, "wal")
	waitFor(t, 5*time.Second, "store to degrade", s.Degraded)
	time.Sleep(50 * time.Millisecond)

	close(stop)
	wg.Wait()
	stopReaders()

	if !s.Degraded() {
		t.Fatal("store should be degraded after injected fsync failures")
	}
	if got := s.Len(); got == 0 {
		t.Fatal("degraded store lost its catalog")
	}
}

// TestMVCCStressFollower interleaves ReplApply chunks from a live leader
// storm with concurrent follower reads.
func TestMVCCStressFollower(t *testing.T) {
	leader, _, err := Open(t.TempDir(), Options{Fsync: FsyncNever, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	f, _, err := Open(t.TempDir(), Options{Follower: true, Fsync: FsyncNever, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pi := fixtures.Figure2()
	for i := 0; i < stressNames; i++ {
		if err := leader.Put(stressName(i), pi); err != nil {
			t.Fatal(err)
		}
	}

	stopReaders := stressReaders(t, f, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			alt := fixtures.Figure2VariedLeaves()
			for i := w; ; i += 5 {
				select {
				case <-stop:
					return
				default:
				}
				name := stressName(i % stressNames)
				var err error
				if i%13 == 0 {
					_, err = leader.Delete(name)
				} else {
					err = leader.Put(name, alt)
				}
				if err != nil {
					t.Errorf("leader writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// The applier streams the leader's commits into the follower, whose
	// readers race every chunk install.
	applied := 0
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		from := f.Pos()
		chunk, err := leader.ReadStream(from, 1<<18)
		if err != nil {
			t.Fatalf("ReadStream(%s): %v", from, err)
		}
		applyAt := chunk.From
		if len(chunk.Data) == 0 {
			if chunk.Next == from {
				continue
			}
			applyAt = chunk.Next
		}
		res, err := f.ReplApply(applyAt, chunk.Epoch, chunk.Data)
		if err != nil {
			t.Fatalf("ReplApply(%s): %v", applyAt, err)
		}
		applied += res.Records
	}
	close(stop)
	wg.Wait()
	stopReaders()
	if applied == 0 {
		t.Fatal("follower applied no records; stress did not exercise ReplApply")
	}
}
