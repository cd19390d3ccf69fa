package store

// Directory-durability suite. fsync(2) on a file does not make its
// directory entry durable: a file created, renamed or linked into a
// directory can vanish on power loss until that directory is fsynced.
// The real file system keeps such entries across a process kill, so no
// reopen-based test can see a missing SyncDir; syncRecorder instead
// records which directories hold entries not yet synced, and which files
// written whole hold data not yet synced, and fails any durable step that
// returns, or deletes a WAL segment, while one does.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"pxml/internal/fixtures"
	"pxml/internal/metrics"
	"pxml/internal/vfs"
)

// syncRecorder is a vfs.FS over the real file system that tracks the
// directories with unsynced entries, and counts writes and fsyncs on
// open WAL segments.
type syncRecorder struct {
	vfs.FS
	mu sync.Mutex
	// dirty maps a directory to one entry created, renamed or linked into
	// it since its last SyncDir.
	dirty map[string]string
	// unsynced holds the files written by WriteFile or through a
	// CreateTemp handle since their last fsync (WAL segments, appended
	// to, are counted by walCounter instead).
	unsynced map[string]bool
	// guard is a data directory whose WAL segments may be removed only
	// while no directory is dirty (compaction deletes them only after the
	// snapshot and every archive copy are durable).
	guard      string
	violations []string
	walWrites  int
	walSyncs   int
}

func newSyncRecorder() *syncRecorder {
	return &syncRecorder{FS: vfs.OS, dirty: make(map[string]string), unsynced: make(map[string]bool)}
}

func exists(name string) bool {
	_, err := os.Lstat(name)
	return err == nil
}

// wrote records whether name holds data not yet fsynced.
func (r *syncRecorder) wrote(name string, unsynced bool) {
	r.mu.Lock()
	if unsynced {
		r.unsynced[filepath.Clean(name)] = true
	} else {
		delete(r.unsynced, filepath.Clean(name))
	}
	r.mu.Unlock()
}

// added records a new entry at name, unsynced in name's directory.
func (r *syncRecorder) added(name string) {
	r.mu.Lock()
	r.dirty[filepath.Dir(filepath.Clean(name))] = filepath.Base(name)
	r.mu.Unlock()
}

// check fails the test if any directory still holds an unsynced entry
// or a segment was removed while one did, then starts the next step
// from a clean slate.
func (r *syncRecorder) check(t *testing.T, step string) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	var left []string
	for dir, entry := range r.dirty {
		left = append(left, filepath.Join(dir, entry))
	}
	sort.Strings(left)
	if len(left) > 0 {
		t.Errorf("%s returned with unsynced directory entries: %s", step, strings.Join(left, ", "))
	}
	left = left[:0]
	for name := range r.unsynced {
		left = append(left, name)
	}
	sort.Strings(left)
	if len(left) > 0 {
		t.Errorf("%s returned with files whose data was not fsynced: %s", step, strings.Join(left, ", "))
	}
	for _, v := range r.violations {
		t.Errorf("%s: %s", step, v)
	}
	r.dirty = make(map[string]string)
	r.unsynced = make(map[string]bool)
	r.violations = nil
}

// walOps returns the WAL segment writes and fsyncs counted so far.
func (r *syncRecorder) walOps() (writes, syncs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.walWrites, r.walSyncs
}

func (r *syncRecorder) MkdirAll(dir string) error {
	var created []string
	for d := filepath.Clean(dir); !exists(d); d = filepath.Dir(d) {
		created = append(created, d)
	}
	if err := r.FS.MkdirAll(dir); err != nil {
		return err
	}
	for _, d := range created {
		r.added(d)
	}
	return nil
}

func (r *syncRecorder) OpenAppend(name string) (vfs.File, error) {
	fresh := !exists(name)
	f, err := r.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	if fresh {
		r.added(name)
	}
	if _, ok := parseSegmentFile(filepath.Base(name)); ok {
		return &walCounter{File: f, r: r}, nil
	}
	return f, nil
}

func (r *syncRecorder) CreateTemp(dir, pattern string) (vfs.File, error) {
	f, err := r.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	r.added(f.Name())
	return &syncTracked{File: f, r: r}, nil
}

func (r *syncRecorder) WriteFile(name string, data []byte) error {
	fresh := !exists(name)
	if err := r.FS.WriteFile(name, data); err != nil {
		return err
	}
	if fresh {
		r.added(name)
	}
	r.wrote(name, true)
	return nil
}

func (r *syncRecorder) Sync(name string) error {
	if err := r.FS.Sync(name); err != nil {
		return err
	}
	r.wrote(name, false)
	return nil
}

func (r *syncRecorder) Rename(oldname, newname string) error {
	if err := r.FS.Rename(oldname, newname); err != nil {
		return err
	}
	// A renamed directory carries its own unsynced entries along.
	r.mu.Lock()
	oldc, newc := filepath.Clean(oldname), filepath.Clean(newname)
	if r.unsynced[oldc] {
		delete(r.unsynced, oldc)
		r.unsynced[newc] = true
	}
	for dir, entry := range r.dirty {
		if dir == oldc || strings.HasPrefix(dir, oldc+string(filepath.Separator)) {
			delete(r.dirty, dir)
			r.dirty[newc+strings.TrimPrefix(dir, oldc)] = entry
		}
	}
	r.mu.Unlock()
	r.added(newname)
	return nil
}

func (r *syncRecorder) Link(oldname, newname string) error {
	if err := r.FS.Link(oldname, newname); err != nil {
		return err
	}
	r.added(newname)
	return nil
}

func (r *syncRecorder) Remove(name string) error {
	if _, ok := parseSegmentFile(filepath.Base(name)); ok {
		r.mu.Lock()
		if r.guard != "" && filepath.Dir(filepath.Clean(name)) == r.guard {
			for dir, entry := range r.dirty {
				r.violations = append(r.violations, fmt.Sprintf("removed %s while %s was unsynced", filepath.Base(name), filepath.Join(dir, entry)))
			}
		}
		r.mu.Unlock()
	}
	if err := r.FS.Remove(name); err != nil {
		return err
	}
	r.wrote(name, false)
	return nil
}

func (r *syncRecorder) SyncDir(dir string) error {
	if err := r.FS.SyncDir(dir); err != nil {
		return err
	}
	r.mu.Lock()
	delete(r.dirty, filepath.Clean(dir))
	r.mu.Unlock()
	return nil
}

// syncTracked tells its recorder whether a file made by CreateTemp holds
// data not yet fsynced.
type syncTracked struct {
	vfs.File
	r *syncRecorder
}

func (f *syncTracked) Write(p []byte) (int, error) {
	f.r.wrote(f.Name(), true)
	return f.File.Write(p)
}

func (f *syncTracked) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.r.wrote(f.Name(), false)
	return nil
}

// walCounter counts writes and fsyncs on an open WAL segment.
type walCounter struct {
	vfs.File
	r *syncRecorder
}

func (f *walCounter) Write(p []byte) (int, error) {
	f.r.mu.Lock()
	f.r.walWrites++
	f.r.mu.Unlock()
	return f.File.Write(p)
}

func (f *walCounter) Sync() error {
	f.r.mu.Lock()
	f.r.walSyncs++
	f.r.mu.Unlock()
	return f.File.Sync()
}

// TestDurableStepsSyncTheirDirectory drives every step that publishes a
// file — a fresh Open and Put under fsync=always, a segment rotation, a
// compaction that archives by hard link, a backup, a restore, a
// promotion and a fence, a follower applying across a rotation — and
// fails any step that returns with an entry whose directory was not
// fsynced. Group commit and follower apply must each cost one WAL write
// and one fsync per batch under fsync=always.
func TestDurableStepsSyncTheirDirectory(t *testing.T) {
	fig := fixtures.Figure2()
	root := t.TempDir()
	rec := newSyncRecorder()

	t.Run("fresh open and put", func(t *testing.T) {
		s, _ := open(t, filepath.Join(root, "fresh"), Options{FS: rec, CompactThreshold: -1})
		defer s.Close()
		rec.check(t, "Open")
		mustPut(t, s, "a", fig)
		rec.check(t, "Put")
	})

	t.Run("rotation", func(t *testing.T) {
		s, _ := open(t, filepath.Join(root, "rotate"), Options{FS: rec, SegmentSize: 1, CompactThreshold: -1})
		defer s.Close()
		rec.check(t, "Open")
		mustPut(t, s, "a", fig)
		if got := s.Pos().Seg; got < 2 {
			t.Fatalf("Put did not rotate: active segment %d", got)
		}
		rec.check(t, "Put that rotates")
	})

	t.Run("compact archives by link", func(t *testing.T) {
		dir := filepath.Join(root, "compact")
		s, _ := open(t, dir, Options{FS: rec, SegmentSize: -1, CompactThreshold: -1,
			ArchiveDir: filepath.Join(root, "archive")})
		defer s.Close()
		mustPut(t, s, "a", fig)
		rec.check(t, "Open and Put")
		rec.guard = filepath.Clean(dir)
		defer func() { rec.guard = "" }()
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if s.Health().WALSegments != 1 {
			t.Fatal("Compact removed no sealed segment")
		}
		rec.check(t, "Compact")
	})

	t.Run("backup and restore", func(t *testing.T) {
		s, _ := open(t, filepath.Join(root, "source"), Options{FS: rec, SegmentSize: 256, CompactThreshold: -1})
		defer s.Close()
		for i := 0; i < 4; i++ {
			mustPut(t, s, fmt.Sprintf("i%d", i), fig)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		mustPut(t, s, "tail", fig)
		rec.check(t, "Open, Put and Compact")
		bdir := filepath.Join(root, "bkup")
		if _, err := s.Backup(bdir); err != nil {
			t.Fatal(err)
		}
		rec.check(t, "Backup")
		if _, err := Restore(bdir, filepath.Join(root, "restored"), RestoreOptions{FS: rec}); err != nil {
			t.Fatal(err)
		}
		rec.check(t, "Restore")
	})

	t.Run("promote and fence", func(t *testing.T) {
		s, _ := open(t, filepath.Join(root, "follower"), Options{FS: rec, Follower: true})
		defer s.Close()
		rec.check(t, "Open")
		if _, err := s.Promote(); err != nil {
			t.Fatal(err)
		}
		rec.check(t, "Promote")
		if err := s.Fence(s.Epoch()+1, "http://successor"); err != nil {
			t.Fatal(err)
		}
		rec.check(t, "Fence")
	})

	t.Run("one write and one fsync per batch", func(t *testing.T) {
		reg := metrics.NewRegistry()
		leader, _ := open(t, filepath.Join(root, "leader"), Options{FS: rec, Registry: reg,
			SegmentSize: 1024, CompactThreshold: -1, CommitBatch: 8})
		defer leader.Close()
		w0, s0 := rec.walOps()
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := leader.Put(fmt.Sprintf("p%d", i), fig); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		w1, s1 := rec.walOps()
		batches := int(reg.Counter("store_commit_batches").Value())
		if w1-w0 != batches || s1-s0 != batches {
			t.Errorf("%d group commits did %d WAL writes and %d fsyncs, want one of each per batch", batches, w1-w0, s1-s0)
		}
		rec.check(t, "Put")

		// A follower applies the leader's WAL chunk by chunk, crossing the
		// leader's rotations.
		if leader.Pos().Seg < 2 {
			t.Fatalf("leader did not rotate: active segment %d", leader.Pos().Seg)
		}
		follower, _ := open(t, filepath.Join(root, "replica"), Options{FS: rec, Follower: true, CompactThreshold: -1})
		defer follower.Close()
		rec.check(t, "follower Open")
		for {
			from := follower.Pos()
			chunk, err := leader.ReadStream(from, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if len(chunk.Data) == 0 && chunk.Next == from {
				break
			}
			at := chunk.From
			if len(chunk.Data) == 0 {
				at = chunk.Next
			}
			w0, s0 := rec.walOps()
			if _, err := follower.ReplApply(at, chunk.Epoch, chunk.Data); err != nil {
				t.Fatal(err)
			}
			w1, s1 := rec.walOps()
			if want := min(len(chunk.Data), 1); w1-w0 != want || s1-s0 != want {
				t.Errorf("applying %d bytes did %d WAL writes and %d fsyncs, want %d of each", len(chunk.Data), w1-w0, s1-s0, want)
			}
			rec.check(t, "ReplApply")
		}
		wantSameCatalog(t, leader, follower)
	})
}

// TestQuarantineDurableBeforeOpenReturns: recovery's copy of a corrupt
// region is the only one left of those bytes, so Open returns only once
// the quarantine file's data, its entry and quarantine/'s own entry are
// fsynced.
func TestQuarantineDurableBeforeOpenReturns(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{CompactThreshold: -1})
	mustPut(t, s, "a", fixtures.Figure2())
	mustPut(t, s, "b", fixtures.Figure2())
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	snap := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderSize+1] ^= 0xff // record "a"'s payload: its CRC fails
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := newSyncRecorder()
	s2, rep := open(t, dir, Options{FS: rec})
	defer s2.Close()
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantine report = %+v, want one record", rep.Quarantined)
	}
	if got, err := os.ReadFile(rep.Quarantined[0].Path); err != nil || len(got) == 0 {
		t.Fatalf("quarantined bytes not preserved: %v", err)
	}
	rec.check(t, "Open that quarantines")
}
