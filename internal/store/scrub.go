package store

import (
	"fmt"
	"os"
	"time"
)

// Background at-rest scrubbing. Disks rot silently: a sector that held
// fsync-acknowledged bytes can fail to read back months later, and a
// store that only notices at the next crash recovery has been serving on
// borrowed time. With Options.ScrubInterval set, the background loop
// re-reads one at-rest file per tick — the snapshot or a sealed segment,
// round-robin — and verifies every frame checksum. The active segment is
// skipped: it is the one file legitimately mid-write.
//
// A checksum mismatch degrades the store. That is deliberate: the
// catalog in memory is fine, but what is on disk no longer replays to
// it, so accepting more writes only widens the gap between what was
// acknowledged and what a restart can recover. Reads keep serving;
// operators restore from a backup (see backup.go).

// Scrub synchronously verifies every at-rest file — the snapshot and all
// sealed local segments — and returns the first corruption or read error
// found. Corruption also degrades the store, exactly as when the
// background scrubber finds it.
func (s *Store) Scrub() error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return fmt.Errorf("store: closed")
	}
	targets := s.scrubTargetsLocked()
	s.mu.RUnlock()
	var firstErr error
	for _, name := range targets {
		if err := s.scrubOne(name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.scrubPassDone()
	return firstErr
}

// scrubStep verifies the next at-rest file in round-robin order. Called
// from the background goroutine on the scrub ticker.
func (s *Store) scrubStep() {
	s.mu.Lock()
	if s.closed || s.closing || s.degraded {
		s.mu.Unlock()
		return
	}
	targets := s.scrubTargetsLocked()
	if s.scrubCursor >= len(targets) {
		s.scrubCursor = 0
	}
	name := targets[s.scrubCursor]
	s.scrubCursor++
	wrapped := s.scrubCursor >= len(targets)
	if wrapped {
		s.scrubCursor = 0
	}
	s.mu.Unlock()
	s.scrubOne(name) // degrades on corruption; nothing more to do here
	if wrapped {
		s.scrubPassDone()
	}
}

// scrubTargetsLocked lists the at-rest files, snapshot first. The
// snapshot is listed even when absent (scrubOne skips a missing file),
// so the target list is never empty. Callers hold s.mu.
func (s *Store) scrubTargetsLocked() []string {
	targets := make([]string, 0, len(s.sealed)+1)
	targets = append(targets, snapshotName)
	for _, si := range s.sealed {
		targets = append(targets, segmentFile(si.n))
	}
	return targets
}

// scrubOne re-reads one at-rest file and verifies its frame checksums. A
// file deleted since listing (compaction won the race) is fine; a region
// that no longer checksums is not — the store degrades.
func (s *Store) scrubOne(name string) error {
	data, err := s.fs.ReadFile(s.path(name))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		s.mu.Lock()
		s.lastErr = err.Error()
		s.lastErrAt = time.Now()
		s.mu.Unlock()
		return fmt.Errorf("store: scrub read %s: %w", name, err)
	}
	s.scrubBytesC.Add(int64(len(data)))
	res, _ := scanFrames(data, func(int64, []byte) error { return nil })
	if len(res.Bad) == 0 && res.TornTail == 0 {
		return nil
	}
	s.mu.Lock()
	s.scrubCorruptions++
	s.scrubCorruptC.Inc()
	err = s.degradeLocked(fmt.Errorf("scrub: %s fails verification (%d bad regions, %d-byte torn tail)",
		name, len(res.Bad), res.TornTail))
	s.mu.Unlock()
	return err
}

// scrubPassDone records one completed cycle over the at-rest files.
func (s *Store) scrubPassDone() {
	s.mu.Lock()
	s.scrubPasses++
	s.scrubLastAt = time.Now()
	s.mu.Unlock()
	s.scrubPassesC.Inc()
}
