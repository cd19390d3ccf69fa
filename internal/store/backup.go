package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"pxml/internal/vfs"
)

// Online backup and point-in-time restore.
//
// A backup is a directory holding a copy of the snapshot, a copy of
// every WAL segment, and a MANIFEST.json written last. The manifest is
// the commit point: every file it lists is already durable with the
// listed size and CRC32 when the manifest appears, so a backup without a
// valid manifest is by definition incomplete and Verify rejects it. A
// backup that failed partway can never masquerade as a good one.
//
// Backups are taken online. The only writer activity a backup excludes
// is compaction (which would delete or replace the very files being
// copied — see Compact); appends and rotations continue, because sealed
// segments are immutable and the active segment is copied only up to the
// append offset captured at the start. The captured offset is the
// backup's consistency point: everything acknowledged before Backup
// returned its manifest position is in the backup, bit for bit.
//
// Restore verifies the backup, stages it into a scratch directory,
// optionally extends it with archived segments cut at a WAL position or
// wall-clock time, proves the staged store opens cleanly, and only then
// swaps it into place — renaming any existing data directory aside and
// deleting it last. No step destroys the old data before the new data
// has passed recovery.

// manifestName is the backup manifest file, written last.
const manifestName = "MANIFEST.json"

// ManifestFormat is the backup layout version this package writes.
const ManifestFormat = 1

// ManifestFile describes one file captured in a backup.
type ManifestFile struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc32"`
}

// Manifest records what a backup contains and the exact WAL position it
// is consistent to.
type Manifest struct {
	Format    int    `json:"format"`
	CreatedAt string `json:"created_at"`
	// Pos is the WAL position the backup captures: the append offset of
	// the active segment at the moment the backup view was taken. It is
	// the natural -to-offset target for restoring "exactly this backup".
	Pos Pos `json:"pos"`
	// Instances and WALRecords describe the captured catalog: live
	// instance count and records in the captured WAL suffix.
	Instances  int   `json:"instances"`
	WALRecords int64 `json:"wal_records"`
	// Snapshot is the captured snapshot file; nil when the store had not
	// compacted yet.
	Snapshot *ManifestFile `json:"snapshot,omitempty"`
	// Segments lists the captured WAL segment files, ascending. The last
	// entry is the active segment, cut at Pos.Off.
	Segments []ManifestFile `json:"segments"`
}

// Backup copies a consistent view of the store into destDir (created,
// and required to be empty) and writes its manifest last. The store
// stays fully online: reads, writes, and rotations proceed; only
// compaction waits. On any failure the files already copied are removed
// best-effort and no manifest is written.
func (s *Store) Backup(destDir string) (*Manifest, error) {
	if destDir == "" {
		return nil, fmt.Errorf("store: empty backup directory")
	}
	s.mu.Lock()
	if s.closed || s.closing {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: closed")
	}
	man := &Manifest{
		Format:     ManifestFormat,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339Nano),
		Pos:        Pos{Seg: s.seg, Off: s.walBytes},
		Instances:  s.Len(),
		WALRecords: s.walRecords,
	}
	type copyItem struct {
		name  string
		limit int64 // -1: whole file
	}
	items := make([]copyItem, 0, len(s.sealed)+2)
	items = append(items, copyItem{snapshotName, -1})
	for _, si := range s.sealed {
		items = append(items, copyItem{segmentFile(si.n), si.size})
	}
	// The active segment is copied only up to the offset captured above;
	// appends racing with the copy land beyond it and belong to the next
	// backup.
	items = append(items, copyItem{segmentFile(s.seg), s.walBytes})
	s.backups++
	s.mu.Unlock()
	s.backupsC.Inc()
	defer func() {
		s.mu.Lock()
		s.backups--
		if s.backups == 0 {
			s.backupsDone.Broadcast()
			// The background loop skips compaction while a backup runs
			// (see compactIfDirty); nudge it now in case the WAL crossed
			// the threshold in the meantime.
			s.maybeKickLocked()
		}
		s.mu.Unlock()
	}()

	if err := requireEmptyDir(s.fs, destDir); err != nil {
		return nil, err
	}
	if err := vfs.MkdirAllSynced(s.fs, destDir); err != nil {
		return nil, fmt.Errorf("store: backup: %w", err)
	}
	var written []string
	fail := func(err error) (*Manifest, error) {
		for _, p := range written {
			s.fs.Remove(p)
		}
		return nil, err
	}
	for _, it := range items {
		data, err := s.fs.ReadFile(s.path(it.name))
		if os.IsNotExist(err) {
			if it.name == snapshotName {
				continue // never compacted; the segments carry everything
			}
			return fail(fmt.Errorf("store: backup: %s vanished mid-copy", it.name))
		}
		if err != nil {
			return fail(fmt.Errorf("store: backup read %s: %w", it.name, err))
		}
		if it.limit >= 0 {
			if int64(len(data)) < it.limit {
				return fail(fmt.Errorf("store: backup: %s is %d bytes, expected at least %d", it.name, len(data), it.limit))
			}
			data = data[:it.limit]
		}
		dst := filepath.Join(destDir, it.name)
		written = append(written, dst)
		if err := s.fs.WriteFile(dst, data); err != nil {
			return fail(fmt.Errorf("store: backup write %s: %w", it.name, err))
		}
		if err := s.fs.Sync(dst); err != nil {
			return fail(fmt.Errorf("store: backup fsync %s: %w", it.name, err))
		}
		mf := ManifestFile{Name: it.name, Size: int64(len(data)), CRC: crc32.ChecksumIEEE(data)}
		if it.name == snapshotName {
			man.Snapshot = &mf
		} else {
			man.Segments = append(man.Segments, mf)
		}
	}
	// Manifest last: its appearance commits the backup, so every data
	// file's entry is made durable before it can appear.
	if err := s.fs.SyncDir(destDir); err != nil {
		return fail(fmt.Errorf("store: backup dir fsync: %w", err))
	}
	buf, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fail(fmt.Errorf("store: backup manifest: %w", err))
	}
	buf = append(buf, '\n')
	written = append(written, filepath.Join(destDir, manifestName))
	if err := vfs.PublishFile(s.fs, destDir, manifestName, buf); err != nil {
		return fail(fmt.Errorf("store: backup manifest: %w", err))
	}
	s.opts.Logger.Info("backup written", "dir", destDir, "instances", man.Instances,
		"files", len(man.Segments)+btoi(man.Snapshot != nil), "pos", man.Pos.String())
	return man, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// requireEmptyDir fails when dir exists and holds anything.
func requireEmptyDir(fsys vfs.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(entries) > 0 {
		return fmt.Errorf("store: directory %s is not empty", dir)
	}
	return nil
}

// ReadManifest loads and decodes a backup's manifest. A nil fsys means
// the real filesystem.
func ReadManifest(fsys vfs.FS, backupDir string) (*Manifest, error) {
	if fsys == nil {
		fsys = vfs.OS
	}
	data, err := fsys.ReadFile(filepath.Join(backupDir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: backup manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("store: backup manifest: %w", err)
	}
	if man.Format != ManifestFormat {
		return nil, fmt.Errorf("store: backup manifest format %d, this build reads %d", man.Format, ManifestFormat)
	}
	return &man, nil
}

// VerifyBackup checks a backup end to end: the manifest parses, and
// every file it lists is present with the exact recorded size and CRC32.
// It returns the manifest on success. A nil fsys means the real
// filesystem.
func VerifyBackup(fsys vfs.FS, backupDir string) (*Manifest, error) {
	if fsys == nil {
		fsys = vfs.OS
	}
	man, err := ReadManifest(fsys, backupDir)
	if err != nil {
		return nil, err
	}
	files := make([]ManifestFile, 0, len(man.Segments)+1)
	if man.Snapshot != nil {
		files = append(files, *man.Snapshot)
	}
	files = append(files, man.Segments...)
	for _, mf := range files {
		data, err := fsys.ReadFile(filepath.Join(backupDir, mf.Name))
		if err != nil {
			return nil, fmt.Errorf("store: backup verify %s: %w", mf.Name, err)
		}
		if int64(len(data)) != mf.Size {
			return nil, fmt.Errorf("store: backup verify %s: %d bytes, manifest says %d", mf.Name, len(data), mf.Size)
		}
		if got := crc32.ChecksumIEEE(data); got != mf.CRC {
			return nil, fmt.Errorf("store: backup verify %s: crc32 %08x, manifest says %08x", mf.Name, got, mf.CRC)
		}
	}
	return man, nil
}

// ErrRestoreNonEmpty marks a restore refused because the target data
// directory already holds data and RestoreOptions.Force was not set.
var ErrRestoreNonEmpty = errors.New("store: restore target is not empty (use force to replace it)")

// RestoreOptions configure Restore.
type RestoreOptions struct {
	// Force allows restoring over an existing, non-empty data directory.
	// Even then the old directory is only renamed aside and is deleted
	// only after the restored store has opened cleanly.
	Force bool
	// ArchiveDir, when non-empty, is a WAL archive whose segments extend
	// the backup past its manifest position (point-in-time recovery).
	ArchiveDir string
	// ToPos, when non-nil, cuts replay at the largest frame boundary at
	// or before this WAL position. Without an archive it can also wind a
	// backup back to an earlier position.
	ToPos *Pos
	// ToTime, when non-zero, cuts replay before the first group commit
	// stamped after this instant. Every group commit carries a stamp.
	ToTime time.Time
	// FS is the filesystem to restore through; nil means the real one.
	FS vfs.FS
}

// RestoreResult reports what a restore produced.
type RestoreResult struct {
	// Manifest is the verified manifest of the source backup.
	Manifest *Manifest
	// Pos is the WAL position of the restored store after any cut. When
	// the restore consulted an archive, the staged segments are
	// renumbered past the archive's history (see Restore) and Pos is in
	// that new numbering.
	Pos Pos
	// Instances is the live catalog size the restored store recovered.
	Instances int
}

// Restore rebuilds dataDir from the backup in backupDir, optionally
// replaying archived WAL segments up to a position or wall-clock cut.
// The backup is verified first; the restored tree is staged next to
// dataDir and proven to open cleanly before anything existing is
// touched; an existing dataDir is renamed aside and deleted only after
// the swap. On failure the previous dataDir is left exactly in place.
//
// A restore that consulted an archive (RestoreOptions.ArchiveDir)
// renumbers the restored segments past the archive's highest number,
// leaving a one-number gap: the restored store is a new timeline, and
// reusing the old numbers would eventually force the archiver to
// overwrite the archived history this restore just replayed. The cut
// target (ToPos/ToTime) is still expressed in the original numbering;
// only the result is renumbered.
func Restore(backupDir, dataDir string, opts RestoreOptions) (*RestoreResult, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	if backupDir == "" || dataDir == "" {
		return nil, fmt.Errorf("store: restore needs backup and data directories")
	}
	if opts.ToPos != nil && !opts.ToTime.IsZero() {
		return nil, fmt.Errorf("store: restore takes -to-offset or -to-time, not both")
	}
	man, err := VerifyBackup(fsys, backupDir)
	if err != nil {
		return nil, err
	}
	if entries, err := fsys.ReadDir(dataDir); err == nil && len(entries) > 0 && !opts.Force {
		return nil, fmt.Errorf("%w: %s", ErrRestoreNonEmpty, dataDir)
	} else if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: restore: %w", err)
	}

	// Stage the restored tree beside the target so the final swap is a
	// rename, not a copy.
	stage := dataDir + ".restoring"
	if err := removeTree(fsys, stage); err != nil {
		return nil, fmt.Errorf("store: restore: clear stage: %w", err)
	}
	if err := fsys.MkdirAll(stage); err != nil {
		return nil, fmt.Errorf("store: restore: %w", err)
	}
	cleanupStage := true
	defer func() {
		if cleanupStage {
			removeTree(fsys, stage)
		}
	}()
	if man.Snapshot != nil {
		if err := vfs.CopyFile(fsys, filepath.Join(backupDir, snapshotName), filepath.Join(stage, snapshotName)); err != nil {
			return nil, fmt.Errorf("store: restore snapshot: %w", err)
		}
	}
	staged := make([]uint64, 0, len(man.Segments))
	for _, mf := range man.Segments {
		n, ok := parseSegmentFile(mf.Name)
		if !ok {
			return nil, fmt.Errorf("store: restore: manifest lists non-segment file %q", mf.Name)
		}
		if err := vfs.CopyFile(fsys, filepath.Join(backupDir, mf.Name), filepath.Join(stage, mf.Name)); err != nil {
			return nil, fmt.Errorf("store: restore %s: %w", mf.Name, err)
		}
		staged = append(staged, n)
	}

	// Point-in-time extension: overlay the archive's copies from the
	// backup's tail segment forward, stopping at the first gap. The
	// archived copy of the tail segment is a superset of the backup's
	// cut of it, because segments only ever grow before sealing.
	if opts.ArchiveDir != "" {
		archived, err := listSegments(fsys, opts.ArchiveDir)
		if err != nil {
			return nil, fmt.Errorf("store: restore archive: %w", err)
		}
		have := make(map[uint64]bool, len(archived))
		for _, n := range archived {
			have[n] = true
		}
		for n := man.Pos.Seg; have[n]; n++ {
			if err := vfs.CopyFile(fsys, filepath.Join(opts.ArchiveDir, segmentFile(n)), filepath.Join(stage, segmentFile(n))); err != nil {
				return nil, fmt.Errorf("store: restore archived %s: %w", segmentFile(n), err)
			}
			if n > man.Pos.Seg {
				staged = append(staged, n)
			}
		}
	}

	// Apply the cut, dropping or truncating staged segments past it.
	pos, err := applyCut(fsys, stage, staged, man, opts)
	if err != nil {
		return nil, err
	}

	// A restore that consulted an archive renumbers the staged segments
	// past the archive's highest number. The reopened store would
	// otherwise resume appending under segment numbers the archive
	// already holds — with different history beyond the cut — and
	// archiving could never accept those segments without overwriting
	// the very history this restore replayed. The renumbering leaves a
	// permanent one-number gap marking the timeline boundary: archive
	// overlays stop at the first missing number, so a later restore can
	// never splice the two histories together.
	if opts.ArchiveDir != "" {
		pos, err = renumberPastArchive(fsys, stage, opts.ArchiveDir, pos)
		if err != nil {
			return nil, err
		}
	}

	// Prove the staged tree opens cleanly before touching anything that
	// exists. This runs full crash recovery on the staged files.
	val, _, err := Open(stage, Options{FS: fsys})
	if err != nil {
		return nil, fmt.Errorf("store: restored tree fails to open: %w", err)
	}
	instances := val.Len()
	if cerr := val.Close(); cerr != nil {
		return nil, fmt.Errorf("store: restored tree fails to close: %w", cerr)
	}

	// Swap: make the staged entries durable, rename any existing dataDir
	// aside, move the stage in, and only then delete the old tree.
	if err := fsys.SyncDir(stage); err != nil {
		return nil, fmt.Errorf("store: restore: %w", err)
	}
	aside := dataDir + ".pre-restore"
	if _, err := fsys.ReadDir(aside); err == nil {
		return nil, fmt.Errorf("store: restore: leftover %s from an earlier restore; remove it first", aside)
	}
	hadOld := false
	if _, err := fsys.ReadDir(dataDir); err == nil {
		hadOld = true
		if err := fsys.Rename(dataDir, aside); err != nil {
			return nil, fmt.Errorf("store: restore: set old data aside: %w", err)
		}
	}
	if err := fsys.Rename(stage, dataDir); err != nil {
		// Put the old tree back; the stage is intact for inspection.
		if hadOld {
			fsys.Rename(aside, dataDir)
		}
		return nil, fmt.Errorf("store: restore swap: %w", err)
	}
	cleanupStage = false
	if err := fsys.SyncDir(filepath.Dir(dataDir)); err != nil {
		return nil, fmt.Errorf("store: restore: dir fsync: %w", err)
	}
	if hadOld {
		if err := removeTree(fsys, aside); err != nil {
			return nil, fmt.Errorf("store: restore: old data set aside at %s but not removed: %w", aside, err)
		}
	}
	return &RestoreResult{Manifest: man, Pos: pos, Instances: instances}, nil
}

// applyCut trims the staged segment set to the requested position or
// time and returns the resulting WAL position. Without a target it
// keeps everything staged.
func applyCut(fsys vfs.FS, stage string, staged []uint64, man *Manifest, opts RestoreOptions) (Pos, error) {
	endPos := func() (Pos, error) {
		if len(staged) == 0 {
			return Pos{}, nil
		}
		last := staged[len(staged)-1]
		data, err := fsys.ReadFile(filepath.Join(stage, segmentFile(last)))
		if err != nil {
			return Pos{}, fmt.Errorf("store: restore: %w", err)
		}
		return Pos{Seg: last, Off: int64(len(data))}, nil
	}
	drop := func(from int) error {
		for _, n := range staged[from:] {
			if err := fsys.Remove(filepath.Join(stage, segmentFile(n))); err != nil {
				return fmt.Errorf("store: restore cut: %w", err)
			}
		}
		return nil
	}
	switch {
	case opts.ToPos != nil:
		target := *opts.ToPos
		cutSeg := -1
		for i, n := range staged {
			if n == target.Seg {
				cutSeg = i
				break
			}
		}
		if cutSeg < 0 {
			// Target beyond (or before) every staged segment: nothing to
			// trim if it is past the end; error if it names a segment the
			// restore cannot reach.
			if len(staged) > 0 && target.Seg > staged[len(staged)-1] {
				return endPos()
			}
			return Pos{}, fmt.Errorf("store: restore: position %s not covered by backup or archive", target)
		}
		if err := drop(cutSeg + 1); err != nil {
			return Pos{}, err
		}
		staged = staged[:cutSeg+1]
		path := filepath.Join(stage, segmentFile(target.Seg))
		data, err := fsys.ReadFile(path)
		if err != nil {
			return Pos{}, fmt.Errorf("store: restore cut: %w", err)
		}
		cut := frameBoundaryAtOrBefore(data, target.Off)
		if cut < int64(len(data)) {
			if err := fsys.Truncate(path, cut); err != nil {
				return Pos{}, fmt.Errorf("store: restore cut: %w", err)
			}
		}
		return Pos{Seg: target.Seg, Off: cut}, nil
	case !opts.ToTime.IsZero():
		tNano := opts.ToTime.UnixNano()
		for i, n := range staged {
			path := filepath.Join(stage, segmentFile(n))
			data, err := fsys.ReadFile(path)
			if err != nil {
				return Pos{}, fmt.Errorf("store: restore cut: %w", err)
			}
			cut, found := stampAfter(data, tNano)
			if !found {
				continue
			}
			if err := drop(i + 1); err != nil {
				return Pos{}, err
			}
			if cut < int64(len(data)) {
				if err := fsys.Truncate(path, cut); err != nil {
					return Pos{}, fmt.Errorf("store: restore cut: %w", err)
				}
			}
			return Pos{Seg: n, Off: cut}, nil
		}
		return endPos()
	default:
		return endPos()
	}
}

// renumberPastArchive renames the staged segments, in ascending order,
// to fresh consecutive numbers starting two past everything in the
// archive (and past their own current numbers), returning pos remapped
// into the new numbering. A stage whose segments already sit wholly past
// the archive is left alone — its numbers cannot collide.
func renumberPastArchive(fsys vfs.FS, stage, archiveDir string, pos Pos) (Pos, error) {
	archived, err := listSegments(fsys, archiveDir)
	if err != nil {
		return Pos{}, fmt.Errorf("store: restore renumber: %w", err)
	}
	if len(archived) == 0 {
		return pos, nil
	}
	segs, err := listSegments(fsys, stage)
	if err != nil {
		return Pos{}, fmt.Errorf("store: restore renumber: %w", err)
	}
	archMax := archived[len(archived)-1]
	if len(segs) == 0 || segs[0] > archMax {
		return pos, nil
	}
	// base-1 is the gap number: above everything archived and everything
	// staged, used by neither timeline, ever.
	base := archMax + 2
	if top := segs[len(segs)-1]; top+2 > base {
		base = top + 2
	}
	out := pos
	for i, n := range segs {
		to := base + uint64(i)
		if err := fsys.Rename(filepath.Join(stage, segmentFile(n)), filepath.Join(stage, segmentFile(to))); err != nil {
			return Pos{}, fmt.Errorf("store: restore renumber: %w", err)
		}
		if pos.Seg == n {
			out.Seg = to
		}
	}
	return out, nil
}

// frameBoundaryAtOrBefore walks frames from the start and returns the
// largest frame-boundary offset that is at most limit.
func frameBoundaryAtOrBefore(data []byte, limit int64) int64 {
	var off int64
	for off < int64(len(data)) {
		_, size, err := parseFrame(data[off:])
		if err != nil || off+int64(size) > limit {
			break
		}
		off += int64(size)
	}
	return off
}

// stampAfter returns the offset of the first commit stamp with a time
// strictly after tNano. The stamp precedes its batch's records, so
// cutting at that offset excludes the whole batch.
func stampAfter(data []byte, tNano int64) (int64, bool) {
	var off int64
	for off < int64(len(data)) {
		payload, size, err := parseFrame(data[off:])
		if err != nil {
			break
		}
		if rec, derr := decodeRecord(payload); derr == nil && rec.op == opStamp && rec.ts > tNano {
			return off, true
		}
		off += int64(size)
	}
	return int64(len(data)), false
}

// removeTree deletes dir and everything under it through fsys. A missing
// dir is fine.
func removeTree(fsys vfs.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		if e.IsDir() {
			if err := removeTree(fsys, p); err != nil {
				return err
			}
			continue
		}
		if err := fsys.Remove(p); err != nil {
			return err
		}
	}
	return fsys.Remove(dir)
}
