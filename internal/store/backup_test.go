package store

// Backup, restore, point-in-time recovery, scrubbing, and the
// quarantine cap. The central claims: a backup restores byte-identically
// to what the manifest promises; a backup that fails partway never
// leaves a manifest that verifies; restore never destroys existing data
// before the restored tree has proven it opens; and PITR cuts land
// exactly where asked.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pxml/internal/fixtures"
	"pxml/internal/metrics"
	"pxml/internal/vfs"
)

func TestBackupVerifyRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{SegmentSize: 256, CompactThreshold: -1})
	fig := fixtures.Figure2()
	for i := 0; i < 6; i++ {
		mustPut(t, s, fmt.Sprintf("pre-%d", i), fig)
	}
	if err := s.Compact(); err != nil { // backup captures snapshot + segments
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mustPut(t, s, fmt.Sprintf("post-%d", i), fig)
	}
	if _, err := s.Delete("pre-0"); err != nil {
		t.Fatal(err)
	}

	bdir := filepath.Join(t.TempDir(), "bkup")
	man, err := s.Backup(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Format != ManifestFormat || man.Instances != 11 || man.Snapshot == nil || len(man.Segments) == 0 {
		t.Fatalf("implausible manifest: %+v", man)
	}
	if man.Pos != s.Pos() {
		t.Fatalf("manifest pos %s, store pos %s (no writes in between)", man.Pos, s.Pos())
	}
	if _, err := VerifyBackup(nil, bdir); err != nil {
		t.Fatalf("fresh backup fails verification: %v", err)
	}
	// The store stays fully writable during and after a backup.
	mustPut(t, s, "after-backup", fig)
	s.Close()

	target := filepath.Join(t.TempDir(), "restored")
	res, err := Restore(bdir, target, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 11 || res.Pos != man.Pos {
		t.Fatalf("restore result %+v, want 11 instances at %s", res, man.Pos)
	}
	r, rep := open(t, target, Options{})
	defer r.Close()
	if rep.dirty() {
		t.Fatalf("restored store dirty on open: %s", rep)
	}
	for i := 1; i < 6; i++ {
		wantInstance(t, r, fmt.Sprintf("pre-%d", i), fig)
	}
	for i := 0; i < 6; i++ {
		wantInstance(t, r, fmt.Sprintf("post-%d", i), fig)
	}
	if _, ok := r.Get("pre-0"); ok {
		t.Fatal("deleted instance resurrected by restore")
	}
	if _, ok := r.Get("after-backup"); ok {
		t.Fatal("post-backup write leaked into the backup")
	}
}

// TestOnlineBackupUnderWrites runs Backup while writers hammer the store
// and proves the backup is a consistent prefix: everything acknowledged
// before the backup started is in it, and it verifies and restores.
func TestOnlineBackupUnderWrites(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{SegmentSize: 512, CompactThreshold: -1})
	defer s.Close()
	fig := fixtures.Figure2()
	for i := 0; i < 8; i++ {
		mustPut(t, s, fmt.Sprintf("pre-%d", i), fig)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				mustPut(t, s, fmt.Sprintf("live-%d", i%32), fig)
			}
		}
	}()
	bdir := filepath.Join(t.TempDir(), "bkup")
	man, err := s.Backup(bdir)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyBackup(nil, bdir); err != nil {
		t.Fatalf("online backup fails verification: %v", err)
	}
	target := filepath.Join(t.TempDir(), "restored")
	res, err := Restore(bdir, target, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != man.Instances {
		t.Fatalf("restore recovered %d instances, manifest says %d", res.Instances, man.Instances)
	}
	r, rep := open(t, target, Options{})
	defer r.Close()
	if rep.dirty() {
		t.Fatalf("restored store dirty: %s", rep)
	}
	for i := 0; i < 8; i++ {
		wantInstance(t, r, fmt.Sprintf("pre-%d", i), fig)
	}
}

// TestBackupFaultAtomicity injects copy/fsync/rename failures into the
// backup destination and demands atomic failure: Backup errors, no
// manifest appears, and VerifyBackup refuses the leftovers.
func TestBackupFaultAtomicity(t *testing.T) {
	cases := []struct {
		name string
		rule vfs.Rule
	}{
		{"first data write fails", vfs.Rule{Op: vfs.OpWrite, Path: "bkup", Times: 1}},
		{"later data write fails", vfs.Rule{Op: vfs.OpWrite, Path: "bkup", After: 2, Times: 1}},
		{"torn data write", vfs.Rule{Op: vfs.OpWrite, Path: "bkup", After: 1, Times: 1, ShortWrite: 7}},
		{"data fsync fails", vfs.Rule{Op: vfs.OpSync, Path: "bkup", Times: 1}},
		{"manifest write fails", vfs.Rule{Op: vfs.OpWrite, Path: manifestName, Times: 1}},
		{"manifest fsync fails", vfs.Rule{Op: vfs.OpSync, Path: manifestName, Times: 1}},
		{"manifest rename fails", vfs.Rule{Op: vfs.OpRename, Path: manifestName, Times: 1}},
		{"source read fails", vfs.Rule{Op: vfs.OpRead, Path: segPrefix, After: 1, Times: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ff := vfs.NewFaultFS(nil)
			dir := t.TempDir()
			s, _ := open(t, dir, Options{SegmentSize: 256, CompactThreshold: -1, FS: ff})
			defer s.Close()
			fig := fixtures.Figure2()
			for i := 0; i < 8; i++ {
				mustPut(t, s, fmt.Sprintf("inst-%d", i), fig)
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				mustPut(t, s, fmt.Sprintf("tail-%d", i), fig)
			}
			bdir := filepath.Join(t.TempDir(), "bkup")
			ff.Inject(tc.rule)
			_, err := s.Backup(bdir)
			ff.Reset()
			if err == nil {
				t.Fatal("Backup succeeded despite injected fault")
			}
			if _, statErr := os.Stat(filepath.Join(bdir, manifestName)); statErr == nil {
				t.Fatal("failed backup left a manifest behind")
			}
			if _, verr := VerifyBackup(nil, bdir); verr == nil {
				t.Fatal("failed backup verifies")
			}
			// The store shrugs the failed backup off: still healthy, still
			// writable, and a clean retry succeeds.
			if h := s.Health(); h.Degraded {
				t.Fatalf("failed backup degraded the store: %+v", h)
			}
			mustPut(t, s, "after-fault", fig)
			if _, err := s.Backup(filepath.Join(t.TempDir(), "retry")); err != nil {
				t.Fatalf("retry backup after fault: %v", err)
			}
		})
	}
}

func TestRestoreRefusesNonEmptyWithoutForce(t *testing.T) {
	dir := t.TempDir()
	fig := fixtures.Figure2()
	s, _ := open(t, dir, Options{})
	mustPut(t, s, "keep", fig)
	bdir := filepath.Join(t.TempDir(), "bkup")
	if _, err := s.Backup(bdir); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "overwritten-by-restore", fig)
	s.Close()

	if _, err := Restore(bdir, dir, RestoreOptions{}); !errors.Is(err, ErrRestoreNonEmpty) {
		t.Fatalf("restore into live data dir: err = %v, want ErrRestoreNonEmpty", err)
	}
	// Refusal touched nothing: the store still has both instances.
	s2, _ := open(t, dir, Options{})
	if _, ok := s2.Get("overwritten-by-restore"); !ok {
		t.Fatal("refused restore damaged the existing store")
	}
	s2.Close()

	res, err := Restore(bdir, dir, RestoreOptions{Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 1 {
		t.Fatalf("forced restore recovered %d instances, want 1", res.Instances)
	}
	if _, err := os.Stat(dir + ".pre-restore"); !os.IsNotExist(err) {
		t.Fatalf("old data dir not cleaned up after successful restore (err=%v)", err)
	}
	s3, _ := open(t, dir, Options{})
	defer s3.Close()
	wantInstance(t, s3, "keep", fig)
	if _, ok := s3.Get("overwritten-by-restore"); ok {
		t.Fatal("forced restore kept post-backup instance")
	}
}

// TestForcedRestoreKeepsOldDataWhenStagedTreeIsBroken: --force must not
// destroy the old directory when the restored tree fails validation.
func TestForcedRestoreKeepsOldDataWhenStagedTreeIsBroken(t *testing.T) {
	dir := t.TempDir()
	fig := fixtures.Figure2()
	s, _ := open(t, dir, Options{})
	mustPut(t, s, "precious", fig)
	bdir := filepath.Join(t.TempDir(), "bkup")
	if _, err := s.Backup(bdir); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Make the staged tree's validation open fail: inject on the stage
	// path only, so verification and copying succeed first.
	ff := vfs.NewFaultFS(nil)
	ff.Inject(vfs.Rule{Op: vfs.OpRead, Path: ".restoring", Times: 1})
	if _, err := Restore(bdir, dir, RestoreOptions{Force: true, FS: ff}); err == nil {
		t.Fatal("restore succeeded despite staged-tree fault")
	}
	s2, _ := open(t, dir, Options{})
	defer s2.Close()
	wantInstance(t, s2, "precious", fig)
}

// TestRestoreToPos restores the same backup at every acknowledged WAL
// position in turn and demands the exact prefix each time.
func TestRestoreToPos(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{SegmentSize: 256, CompactThreshold: -1})
	fig := fixtures.Figure2()
	const n = 10
	positions := make([]Pos, 0, n)
	for i := 0; i < n; i++ {
		mustPut(t, s, fmt.Sprintf("inst-%d", i), fig)
		positions = append(positions, s.Pos())
	}
	bdir := filepath.Join(t.TempDir(), "bkup")
	if _, err := s.Backup(bdir); err != nil {
		t.Fatal(err)
	}
	s.Close()

	for i, pos := range positions {
		target := filepath.Join(t.TempDir(), fmt.Sprintf("at-%d", i))
		res, err := Restore(bdir, target, RestoreOptions{ToPos: &pos})
		if err != nil {
			t.Fatalf("restore to %s: %v", pos, err)
		}
		if res.Instances != i+1 {
			t.Fatalf("restore to %s: %d instances, want %d", pos, res.Instances, i+1)
		}
		r, _ := open(t, target, Options{})
		for j := 0; j <= i; j++ {
			wantInstance(t, r, fmt.Sprintf("inst-%d", j), fig)
		}
		if _, ok := r.Get(fmt.Sprintf("inst-%d", i+1)); ok {
			t.Fatalf("restore to %s includes later write", pos)
		}
		r.Close()
	}
}

// TestPITRAcrossArchive: a base backup plus archived segments roll the
// restore forward past the backup, and -to-time cuts between phases.
func TestPITRAcrossArchive(t *testing.T) {
	dir := t.TempDir()
	arch := t.TempDir()
	s, _ := open(t, dir, Options{SegmentSize: 256, CompactThreshold: -1, ArchiveDir: arch})
	fig := fixtures.Figure2()
	for i := 0; i < 5; i++ {
		mustPut(t, s, fmt.Sprintf("phase1-%d", i), fig)
	}
	bdir := filepath.Join(t.TempDir(), "base")
	if _, err := s.Backup(bdir); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	cutAt := time.Now()
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 5; i++ {
		mustPut(t, s, fmt.Sprintf("phase2-%d", i), fig)
	}
	// Compact seals and archives everything written so far; the archive
	// now extends well past the base backup.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Roll fully forward: base backup + whole archive.
	full := filepath.Join(t.TempDir(), "full")
	res, err := Restore(bdir, full, RestoreOptions{ArchiveDir: arch})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 10 {
		t.Fatalf("full PITR recovered %d instances, want 10", res.Instances)
	}
	r, _ := open(t, full, Options{})
	wantInstance(t, r, "phase2-4", fig)
	r.Close()

	// Cut between the phases: phase 1 only.
	cut := filepath.Join(t.TempDir(), "cut")
	res, err = Restore(bdir, cut, RestoreOptions{ArchiveDir: arch, ToTime: cutAt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 5 {
		t.Fatalf("PITR to %s recovered %d instances, want 5", cutAt.Format(time.RFC3339Nano), res.Instances)
	}
	r2, _ := open(t, cut, Options{})
	defer r2.Close()
	for i := 0; i < 5; i++ {
		wantInstance(t, r2, fmt.Sprintf("phase1-%d", i), fig)
	}
	if _, ok := r2.Get("phase2-0"); ok {
		t.Fatal("time cut let a phase-2 write through")
	}
}

func TestRestoreRejectsPosAndTimeTogether(t *testing.T) {
	pos := Pos{Seg: 1}
	_, err := Restore("x", "y", RestoreOptions{ToPos: &pos, ToTime: time.Now()})
	if err == nil {
		t.Fatal("restore accepted -to-offset and -to-time together")
	}
}

func TestScrubDetectsAtRestCorruption(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, _ := open(t, dir, Options{SegmentSize: 256, CompactThreshold: -1, Registry: reg})
	defer s.Close()
	fig := fixtures.Figure2()
	for i := 0; i < 8; i++ {
		mustPut(t, s, fmt.Sprintf("inst-%d", i), fig)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "tail", fig)
	if err := s.Scrub(); err != nil {
		t.Fatalf("scrub of a healthy store: %v", err)
	}
	h := s.Health()
	if h.ScrubPasses != 1 || h.ScrubCorruptions != 0 {
		t.Fatalf("health after clean scrub: %+v", h)
	}

	// Rot the at-rest snapshot behind the store's back.
	snap := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Scrub(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("scrub of rotted snapshot: err = %v, want ErrDegraded", err)
	}
	h = s.Health()
	if !h.Degraded || h.ScrubCorruptions == 0 {
		t.Fatalf("health after corrupt scrub: %+v", h)
	}
	if got := reg.Counter("store_scrub_corruptions").Value(); got == 0 {
		t.Fatal("store_scrub_corruptions not incremented")
	}
	if err := s.Put("rejected", fig); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write to scrub-degraded store: err = %v, want ErrDegraded", err)
	}
	// Reads keep serving from memory.
	wantInstance(t, s, "tail", fig)
}

func TestBackgroundScrubber(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, _ := open(t, dir, Options{
		SegmentSize:      256,
		CompactThreshold: -1,
		ScrubInterval:    5 * time.Millisecond,
		Registry:         reg,
	})
	defer s.Close()
	fig := fixtures.Figure2()
	for i := 0; i < 8; i++ {
		mustPut(t, s, fmt.Sprintf("inst-%d", i), fig)
	}
	waitFor(t, 15*time.Second, "background scrub pass", func() bool {
		return reg.Counter("store_scrub_passes").Value() >= 1
	})
	if h := s.Health(); h.Degraded || h.ScrubLastAt == "" {
		t.Fatalf("health after background scrub of healthy store: %+v", h)
	}

	// Rot a sealed segment; the background scrubber must notice on its
	// own, with no Scrub() call.
	segs, err := listSegments(vfs.OS, dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want a sealed segment to rot (segments %v, err=%v)", segs, err)
	}
	sealed := filepath.Join(dir, segmentFile(segs[0]))
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(sealed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "background scrubber to degrade the store", func() bool {
		return s.Health().Degraded
	})
}

func TestQuarantineCap(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A segment of valid frames wrapping undecodable records: every one
	// quarantines as its own file.
	var buf []byte
	for i := 0; i < 8; i++ {
		buf = appendFrame(buf, []byte{99, byte(i)})
	}
	if err := os.WriteFile(filepath.Join(dir, segmentFile(1)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s, rep := open(t, dir, Options{QuarantineMax: 3, Registry: reg})
	defer s.Close()
	if len(rep.Quarantined) != 8 {
		t.Fatalf("quarantined %d records, want 8", len(rep.Quarantined))
	}
	entries, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("quarantine/ holds %d files under a 3-file cap", len(entries))
	}
	if h := s.Health(); h.QuarantineFiles != 3 {
		t.Fatalf("health reports %d quarantine files, want 3", h.QuarantineFiles)
	}
	if got := reg.Gauge("store_quarantine_files").Value(); got != 3 {
		t.Fatalf("store_quarantine_files gauge = %d, want 3", got)
	}
}
