package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/metrics"
)

// open opens a store in dir with test-friendly defaults, failing the test
// on error.
func open(t *testing.T, dir string, opts Options) (*Store, *RecoveryReport) {
	t.Helper()
	s, rep, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rep
}

func mustPut(t *testing.T, s *Store, name string, pi *core.ProbInstance) {
	t.Helper()
	if err := s.Put(name, pi); err != nil {
		t.Fatalf("Put(%s): %v", name, err)
	}
}

func wantInstance(t *testing.T, s *Store, name string, want *core.ProbInstance) {
	t.Helper()
	got, ok := s.Get(name)
	if !ok {
		t.Fatalf("instance %q missing", name)
	}
	if !core.Equal(got, want, 1e-12) {
		t.Fatalf("instance %q differs after reopen", name)
	}
}

func TestPutGetDeleteReopen(t *testing.T) {
	dir := t.TempDir()
	s, rep := open(t, dir, Options{})
	if rep.Recovered != 0 {
		t.Fatalf("fresh store recovered %d instances", rep.Recovered)
	}
	fig := fixtures.Figure2()
	varied := fixtures.Figure2VariedLeaves()
	mustPut(t, s, "fig2", fig)
	mustPut(t, s, "varied", varied)
	mustPut(t, s, "doomed", fig)
	if _, err := s.Delete("doomed"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Delete("never-existed"); err != nil {
		t.Fatalf("Delete of absent name: %v", err)
	}
	if got, want := s.Names(), []string{"fig2", "varied"}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rep2 := open(t, dir, Options{})
	defer s2.Close()
	if rep2.Recovered != 2 {
		t.Fatalf("reopen recovered %d instances, want 2 (%s)", rep2.Recovered, rep2)
	}
	if len(rep2.Quarantined) != 0 || rep2.TruncatedBytes != 0 {
		t.Fatalf("clean reopen reported damage: %s", rep2)
	}
	wantInstance(t, s2, "fig2", fig)
	wantInstance(t, s2, "varied", varied)
	if _, ok := s2.Get("doomed"); ok {
		t.Fatal("deleted instance resurrected by replay")
	}
}

func TestPutOverwriteLastWins(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{})
	mustPut(t, s, "x", fixtures.Figure2())
	want := fixtures.Figure2VariedLeaves()
	mustPut(t, s, "x", want)
	s.Close()

	s2, _ := open(t, dir, Options{})
	defer s2.Close()
	wantInstance(t, s2, "x", want)
}

// TestMemoLivesAsLongAsItsVersion checks that a memo survives commits to
// other names and compaction, and that a put, a delete or a reopen of its
// own name starts it over.
func TestMemoLivesAsLongAsItsVersion(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{})
	builds := 0
	build := func(_ uint64, pi *core.ProbInstance) any {
		builds++
		return builds
	}
	memo := func(b func(uint64, *core.ProbInstance) any) any {
		t.Helper()
		v, ok := s.Memo("x", b)
		if !ok {
			return nil
		}
		return v
	}
	if v := memo(build); v != nil {
		t.Fatalf("memo of an absent name = %v", v)
	}
	mustPut(t, s, "x", fixtures.Figure2())
	if v := memo(nil); v != nil {
		t.Fatalf("peek before any build = %v", v)
	}
	if v := memo(build); v != 1 {
		t.Fatalf("first build = %v, want 1", v)
	}
	mustPut(t, s, "other", fixtures.Figure2())
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if v := memo(build); v != 1 {
		t.Fatalf("memo after another name's commit and a compaction = %v, want 1", v)
	}
	mustPut(t, s, "x", fixtures.Figure2VariedLeaves())
	if v := memo(nil); v != nil {
		t.Fatalf("peek after a re-put = %v", v)
	}
	if v := memo(build); v != 2 {
		t.Fatalf("build after a re-put = %v, want 2", v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, _ = open(t, dir, Options{})
	defer s.Close()
	if v := memo(build); v != 3 {
		t.Fatalf("build after reopen = %v, want 3", v)
	}
	if _, err := s.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if v := memo(build); v != nil {
		t.Fatalf("memo after delete = %v", v)
	}
}

// TestMemoryStore runs one script of puts, deletes and memo builds on a
// memory store and on a durable one: both must answer it alike, versions
// counting up across delete and re-put and each memo living exactly as
// long as its version. The memory store must start no goroutine and
// create no file, even in the working directory its empty Dir names.
func TestMemoryStore(t *testing.T) {
	want := []string{
		"put x: version 1 true, names [x], epoch +1, memo <nil>",
		"build x: v1#1",
		"put y: version 1 true, names [x y], epoch +2, memo v1#1",
		"re-put x: version 2 true, names [x y], epoch +3, memo <nil>",
		"build x: v2#2",
		"delete x: true <nil>",
		"deleted x: version 0 false, names [y], epoch +4, memo <nil>",
		"delete x again: false <nil>",
		"put x again: version 3 true, names [x y], epoch +5, memo <nil>",
		"build x: v3#3",
	}
	script := func(s *Store) []string {
		var out []string
		note := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
		e0 := s.CatalogEpoch()
		observe := func(op string) {
			v, ok := s.Version("x")
			peek, _ := s.Memo("x", nil)
			note("%s: version %d %v, names %v, epoch +%d, memo %v", op, v, ok, s.Names(), s.CatalogEpoch()-e0, peek)
		}
		builds := 0
		build := func() {
			v, _ := s.Memo("x", func(version uint64, _ *core.ProbInstance) any {
				builds++
				return fmt.Sprintf("v%d#%d", version, builds)
			})
			note("build x: %v", v)
		}
		mustPut(t, s, "x", fixtures.Figure2())
		observe("put x")
		build()
		mustPut(t, s, "y", fixtures.Figure2())
		observe("put y")
		mustPut(t, s, "x", fixtures.Figure2VariedLeaves())
		observe("re-put x")
		build()
		existed, err := s.Delete("x")
		note("delete x: %v %v", existed, err)
		observe("deleted x")
		existed, err = s.Delete("x")
		note("delete x again: %v %v", existed, err)
		mustPut(t, s, "x", fixtures.Figure2())
		observe("put x again")
		build()
		return out
	}
	check := func(kind string, got []string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s store:\n got %q\nwant %q", kind, got, want)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cwd := t.TempDir()
	if err := os.Chdir(cwd); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	goroutines := runtime.NumGoroutine()
	mem := OpenMemory()
	if mem.Durable() {
		t.Error("memory store reports Durable")
	}
	check("memory", script(mem))
	// The rest of what a memory store supports: reads of the catalog, and
	// the durable store's state, which for a store without a disk is zero.
	wantInstance(t, mem, "x", fixtures.Figure2())
	if _, ok := mem.Get("gone"); ok {
		t.Error("Get of an absent name found one")
	}
	if all := mem.All(); len(all) != 2 || all["x"] == nil || all["y"] == nil || mem.Len() != 2 {
		t.Errorf("All = %v, Len = %d, want x and y", all, mem.Len())
	}
	if v, ok := mem.Version("y"); v != 1 || !ok {
		t.Errorf("Version(y) = %d %v, want 1 true", v, ok)
	}
	if fenced, epoch, leader := mem.Fenced(); fenced || epoch != 0 || leader != "" || mem.Epoch() != 0 {
		t.Errorf("Fenced = %v %d %q, Epoch = %d", fenced, epoch, leader, mem.Epoch())
	}
	if mem.IsFollower() || mem.Degraded() || mem.Dir() != "" || mem.LastReplStamp() != 0 {
		t.Errorf("IsFollower %v, Degraded %v, Dir %q, LastReplStamp %d", mem.IsFollower(), mem.Degraded(), mem.Dir(), mem.LastReplStamp())
	}
	if mem.WALSize() != 0 || mem.Pos() != (Pos{}) {
		t.Errorf("WALSize %d, Pos %s, want 0 and 0:0", mem.WALSize(), mem.Pos())
	}
	if h := mem.Health(); h.Degraded || h.Instances != 2 || h.WALBytes != 0 || h.WALRecords != 0 || h.LastError != "" {
		t.Errorf("Health = %+v", h)
	}
	if err := mem.Sync(); err != nil {
		t.Errorf("Sync = %v", err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("memory store: %d goroutines, %d before OpenMemory", n, goroutines)
	}
	if files, err := os.ReadDir(cwd); err != nil || len(files) != 0 {
		t.Errorf("memory store left %d files in the working directory (%v)", len(files), err)
	}

	s, _ := open(t, t.TempDir(), Options{})
	defer s.Close()
	if !s.Durable() {
		t.Error("durable store reports not Durable")
	}
	check("durable", script(s))
}

// TestMemoRacingBuildsAgree checks that concurrent first builds of one
// version hand every caller the same value.
func TestMemoRacingBuildsAgree(t *testing.T) {
	s, _ := open(t, t.TempDir(), Options{})
	defer s.Close()
	mustPut(t, s, "x", fixtures.Figure2())
	got := make([]any, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = s.Memo("x", func(uint64, *core.ProbInstance) any { return new(int) })
		}()
	}
	wg.Wait()
	for i, v := range got {
		if v == nil || v != got[0] {
			t.Fatalf("caller %d got %v, caller 0 got %v", i, v, got[0])
		}
	}
}

func TestPutRejectsBadArgs(t *testing.T) {
	s, _ := open(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.Put("", fixtures.Figure2()); err == nil {
		t.Fatal("Put with empty name succeeded")
	}
	if err := s.Put("x", nil); err == nil {
		t.Fatal("Put with nil instance succeeded")
	}
}

func TestCompactShrinksWALAndPreservesCatalog(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{CompactThreshold: -1})
	fig := fixtures.Figure2()
	for i := 0; i < 20; i++ {
		mustPut(t, s, fmt.Sprintf("inst-%02d", i%5), fig)
	}
	if s.WALSize() == 0 {
		t.Fatal("WAL empty after 20 puts")
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := s.WALSize(); got != 0 {
		t.Fatalf("WAL size after compact = %d, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot missing after compact: %v", err)
	}
	s.Close()

	s2, rep := open(t, dir, Options{})
	defer s2.Close()
	if rep.SnapshotRecords != 5 || rep.WALRecords != 0 || rep.Recovered != 5 {
		t.Fatalf("post-compact reopen: %s", rep)
	}
	wantInstance(t, s2, "inst-03", fig)
}

func TestThresholdTriggersBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{CompactThreshold: 1}) // every append crosses it
	mustPut(t, s, "a", fixtures.Figure2())
	deadline := time.Now().Add(5 * time.Second)
	for s.WALSize() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	s.Close()
}

func TestSnapshotInterval(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{CompactThreshold: -1, SnapshotInterval: 20 * time.Millisecond})
	mustPut(t, s, "a", fixtures.Figure2())
	deadline := time.Now().Add(5 * time.Second)
	for s.WALSize() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshot never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, _ := open(t, dir, Options{Fsync: policy, FsyncEvery: 10 * time.Millisecond})
			mustPut(t, s, "a", fixtures.Figure2())
			s.Close()
			s2, rep := open(t, dir, Options{})
			defer s2.Close()
			if rep.Recovered != 1 {
				t.Fatalf("policy %s lost the instance across clean close", policy)
			}
		})
	}
}

func TestFsyncMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := open(t, t.TempDir(), Options{Fsync: FsyncAlways, Registry: reg})
	mustPut(t, s, "a", fixtures.Figure2())
	mustPut(t, s, "b", fixtures.Figure2())
	s.Close()
	snap := reg.Snapshot()
	if got := snap["store_wal_appends"].(int64); got != 2 {
		t.Fatalf("store_wal_appends = %d, want 2", got)
	}
	if got := snap["store_wal_fsyncs"].(int64); got < 2 {
		t.Fatalf("store_wal_fsyncs = %d, want >= 2 under FsyncAlways", got)
	}
	if got := snap["store_wal_append_bytes"].(int64); got <= 0 {
		t.Fatalf("store_wal_append_bytes = %d, want > 0", got)
	}
}

// TestStoreCountsWithoutRegistry: a store opened with zero Options counts
// into a registry of its own through rotation, compaction, scrub,
// quarantine and degrade, and reports to a logger that discards.
func TestStoreCountsWithoutRegistry(t *testing.T) {
	dir := t.TempDir()
	fig := fixtures.Figure2()
	counter := func(s *Store, name string) int64 { return s.opts.Registry.Counter(name).Value() }
	gauge := func(s *Store, name string) int64 { return s.opts.Registry.Gauge(name).Value() }

	s, _ := open(t, dir, Options{})
	mustPut(t, s, "a", fig)
	mustPut(t, s, "b", fig)
	mustPut(t, s, "c", fig)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Scrub(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"store_wal_appends": 3, "store_commit_batches": 3, "store_wal_rotations": 1,
		"store_compactions": 1, "store_scrub_passes": 1,
	} {
		if got := counter(s, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := counter(s, "store_wal_fsyncs"); got < 3 {
		t.Errorf("store_wal_fsyncs = %d, want >= 3", got)
	}
	if got := counter(s, "store_scrub_bytes"); got <= 0 {
		t.Errorf("store_scrub_bytes = %d, want > 0", got)
	}
	if got := gauge(s, "store_wal_segments"); got != 1 {
		t.Errorf("store_wal_segments = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte of the first snapshot record: the reopen
	// quarantines it.
	snap := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderSize+1] ^= 0xff
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rep := open(t, dir, Options{})
	defer s2.Close()
	if s2.opts.Registry == s.opts.Registry {
		t.Fatal("two stores opened without a registry share one")
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantine report = %+v", rep.Quarantined)
	}
	if got := counter(s2, "store_recovery_quarantined"); got != 1 {
		t.Errorf("store_recovery_quarantined = %d, want 1", got)
	}
	if got := counter(s2, "store_recovered_instances"); got != 2 {
		t.Errorf("store_recovered_instances = %d, want 2", got)
	}
	if got := gauge(s2, "store_quarantine_files"); got != 1 {
		t.Errorf("store_quarantine_files = %d, want 1", got)
	}

	// Rot the snapshot the repairing compaction wrote: a scrub degrades.
	if data, err = os.ReadFile(snap); err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s2.Scrub(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("scrub of rotted snapshot: err = %v, want ErrDegraded", err)
	}
	if got := counter(s2, "store_scrub_corruptions"); got != 1 {
		t.Errorf("store_scrub_corruptions = %d, want 1", got)
	}
	if got := gauge(s2, "store_degraded"); got != 1 {
		t.Errorf("store_degraded = %d, want 1", got)
	}
	if err := s2.Put("rejected", fig); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write to degraded store: err = %v, want ErrDegraded", err)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever} {
		got, err := ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted bogus policy")
	}
}

func TestUseAfterClose(t *testing.T) {
	s, _ := open(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Put("a", fixtures.Figure2()); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact after Close succeeded")
	}
}

// TestConcurrentMutation exercises the store under -race: concurrent
// writers, readers, and explicit compactions.
func TestConcurrentMutation(t *testing.T) {
	s, _ := open(t, t.TempDir(), Options{Fsync: FsyncNever, CompactThreshold: 1 << 12})
	defer s.Close()
	fig := fixtures.Figure2()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("inst-%d", r.Intn(10))
				switch r.Intn(3) {
				case 0:
					if _, err := s.Delete(name); err != nil {
						t.Errorf("Delete: %v", err)
					}
				default:
					if err := s.Put(name, fig); err != nil {
						t.Errorf("Put: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.Names()
			s.All()
			s.Len()
			if err := s.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
			}
		}
	}()
	wg.Wait()
}
