package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"pxml/internal/vfs"
)

// WAL archiving. When Options.ArchiveDir is set, every sealed segment is
// hard-linked (or, across filesystems, durably copied) into the archive
// directory under its canonical name before compaction is allowed to
// delete the local copy. The archive plus a base backup is what
// point-in-time recovery replays: Restore cuts the archived record
// stream at a WAL position or a commit-stamp wall-clock time (see
// backup.go). Archive failures are retried from the background loop and
// never degrade the store — losing the archive costs recovery points,
// not acknowledged writes.
//
// The archive is append-only history. An archived segment is never
// overwritten with different bytes: a torn previous copy (a byte-prefix
// of the local segment) is repaired atomically, a longer archived copy
// that has the local segment as a prefix is left alone (every local byte
// is already archived — the archive kept a longer timeline this store was
// restored away from), and any other mismatch is an error. Overwriting
// would destroy exactly the history a point-in-time restore exists to
// replay.
//
// Locking: s.archMu serializes the background archiver with compaction —
// both copy sealed segments into the archive, and compaction is the only
// deleter of the local copies the archiver reads. The copies themselves
// run without s.mu (sealed segments are immutable), so reads and writes
// never stall behind archive I/O; s.mu is taken only to snapshot the
// pending list and to mark segments archived.

// archivePending archives every sealed local segment that is not yet in
// the archive, then applies retention. Called from the background
// goroutine on rotation kicks and on the retry ticker.
func (s *Store) archivePending() {
	s.archMu.Lock()
	defer s.archMu.Unlock()
	s.mu.Lock()
	if s.closed || s.opts.ArchiveDir == "" {
		s.mu.Unlock()
		return
	}
	pending := s.pendingArchiveLocked()
	s.mu.Unlock()
	if err := s.archiveSegments(pending); err != nil {
		s.mu.Lock()
		s.noteErrLocked(&s.archiveErrs, s.archiveErrsC, fmt.Errorf("store: archive: %w", err))
		s.mu.Unlock()
		return
	}
	if err := s.pruneArchive(); err != nil {
		s.mu.Lock()
		s.noteErrLocked(&s.archiveErrs, s.archiveErrsC, fmt.Errorf("store: archive retention: %w", err))
		s.mu.Unlock()
	}
}

// pendingArchiveLocked snapshots the sealed segments not yet archived,
// oldest first. Callers hold s.mu.
func (s *Store) pendingArchiveLocked() []segInfo {
	var pending []segInfo
	for _, si := range s.sealed {
		if !si.archived {
			pending = append(pending, si)
		}
	}
	return pending
}

// archiveSegments lands the given sealed segments in the archive, oldest
// first, stopping at the first failure so the archive never has a gap
// followed by newer segments, and marks each one archived as it lands.
// Callers hold s.archMu but never s.mu: the segments are sealed and
// immutable, and archMu keeps compaction from deleting them mid-copy. A
// nil return means every listed segment is safely in the archive.
func (s *Store) archiveSegments(pending []segInfo) error {
	for _, si := range pending {
		copied, err := s.archiveOne(si)
		if err != nil {
			return fmt.Errorf("segment %d: %w", si.n, err)
		}
		s.mu.Lock()
		for i := range s.sealed {
			if s.sealed[i].n == si.n {
				s.sealed[i].archived = true
			}
		}
		s.mu.Unlock()
		if copied {
			s.archivedSegs.Inc()
			s.opts.Logger.Info("archived", "file", segmentFile(si.n))
		}
	}
	return nil
}

// archiveOne puts one sealed segment's bytes in the archive, reporting
// whether a copy was actually performed (false when the bytes were
// already there). A nil return means the archived entry is durable: the
// caller marks the segment archived, and compaction may then delete the
// local copy. An existing archived file under the same name is
// compared byte for byte and never overwritten with different history —
// see the package comment above for the three tolerated cases.
func (s *Store) archiveOne(si segInfo) (bool, error) {
	src := s.path(segmentFile(si.n))
	dst := filepath.Join(s.opts.ArchiveDir, segmentFile(si.n))
	existing, err := s.fs.ReadFile(dst)
	if os.IsNotExist(err) {
		// Fresh name: hard-link when the filesystem allows it (cheap, and
		// shares storage with the immutable source), else publish a
		// durable copy through a temp name.
		if lerr := s.fs.Link(src, dst); lerr == nil {
			return true, s.fs.SyncDir(s.opts.ArchiveDir)
		}
		local, rerr := s.fs.ReadFile(src)
		if rerr != nil {
			return false, rerr
		}
		return true, s.writeArchive(si.n, local)
	}
	if err != nil {
		return false, err
	}
	local, err := s.fs.ReadFile(src)
	if err != nil {
		return false, err
	}
	switch {
	case bytes.Equal(existing, local):
		// A previous attempt that crashed after the copy, or a restore
		// staged this exact segment: the bytes are already archived.
		return false, nil
	case len(existing) < len(local) && bytes.Equal(existing, local[:len(existing)]):
		// A previous copy torn by a crash; replace it atomically with the
		// complete segment.
		return true, s.writeArchive(si.n, local)
	case len(existing) > len(local) && bytes.Equal(existing[:len(local)], local):
		// The archived copy is longer and this segment is its prefix: the
		// archive kept the original of a timeline this store was restored
		// away from. Every local byte is already archived; truncating
		// archived history is never acceptable.
		return false, nil
	default:
		return false, fmt.Errorf("local segment diverges from archived %s; refusing to overwrite archive history", segmentFile(si.n))
	}
}

// writeArchive publishes segment n's bytes in the archive through a temp
// name, so a crash can never leave a torn segment file in the archive
// masquerading as a sealed one.
func (s *Store) writeArchive(n uint64, data []byte) error {
	return vfs.PublishFile(s.fs, s.opts.ArchiveDir, segmentFile(n), data)
}

// pruneArchive enforces Options.ArchiveRetention by deleting the oldest
// archived segments beyond the cap. Retention bounds disk, at the
// documented cost of how far back point-in-time recovery can reach.
// Callers hold s.archMu.
func (s *Store) pruneArchive() error {
	if s.opts.ArchiveRetention <= 0 {
		return nil
	}
	segs, err := listSegments(s.fs, s.opts.ArchiveDir)
	if err != nil {
		return err
	}
	for len(segs) > s.opts.ArchiveRetention {
		victim := segs[0]
		if err := s.fs.Remove(filepath.Join(s.opts.ArchiveDir, segmentFile(victim))); err != nil {
			return fmt.Errorf("segment %d: %w", victim, err)
		}
		s.opts.Logger.Info("archive retention dropped", "file", segmentFile(victim))
		segs = segs[1:]
	}
	return nil
}
