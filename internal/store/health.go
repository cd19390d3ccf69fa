package store

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"pxml/internal/metrics"
)

// ErrDegraded marks every write rejected because the store has flipped
// into its sticky read-only degraded state. Match with errors.Is; the
// wrapped message carries the original cause.
var ErrDegraded = errors.New("store: degraded (read-only)")

// Health is a point-in-time view of the store's condition, served under
// /metrics and behind /readyz. Timestamps are RFC 3339 strings so a
// healthy store marshals without zero-time noise.
type Health struct {
	// Degraded reports the sticky read-only state: an unrecoverable WAL
	// or snapshot write error was hit, reads keep serving from memory,
	// and Put/Delete return ErrDegraded until the process restarts.
	Degraded bool `json:"degraded"`
	// Reason is the error that degraded the store.
	Reason string `json:"reason,omitempty"`
	// DegradedSince is when the state flipped.
	DegradedSince string `json:"degraded_since,omitempty"`
	// Instances and WALBytes/WALRecords describe the live catalog.
	Instances  int   `json:"instances"`
	WALBytes   int64 `json:"wal_bytes"`
	WALRecords int64 `json:"wal_records"`
	// WALSegments counts local segment files (sealed plus active);
	// WALPos is the current append position ("seg:off").
	WALSegments int    `json:"wal_segments"`
	WALPos      string `json:"wal_pos"`
	// FsyncErrors and CompactErrors count failed WAL flushes and failed
	// snapshot compactions (including retried transients that later
	// succeeded); RotateErrors and ArchiveErrors count failed segment
	// rotations and failed archive copies (both retried, not fatal).
	FsyncErrors   int64 `json:"fsync_errors"`
	CompactErrors int64 `json:"compact_errors"`
	RotateErrors  int64 `json:"rotate_errors,omitempty"`
	ArchiveErrors int64 `json:"archive_errors,omitempty"`
	// ScrubPasses counts completed scrub passes over the at-rest files;
	// ScrubCorruptions counts checksum mismatches the scrubber found (any
	// nonzero count has also degraded the store). ScrubLastAt is when the
	// last pass finished.
	ScrubPasses      int64  `json:"scrub_passes"`
	ScrubCorruptions int64  `json:"scrub_corruptions"`
	ScrubLastAt      string `json:"scrub_last_at,omitempty"`
	// QuarantineFiles is how many corrupt-region files quarantine/ holds.
	QuarantineFiles int `json:"quarantine_files"`
	// LastError is the most recent maintenance or write error observed,
	// degraded or not.
	LastError   string `json:"last_error,omitempty"`
	LastErrorAt string `json:"last_error_at,omitempty"`
}

// Health returns the current health snapshot.
func (s *Store) Health() Health {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := Health{
		Degraded:         s.degraded,
		Reason:           s.degradeCause,
		Instances:        s.Len(),
		WALBytes:         s.walTotal,
		WALRecords:       s.walRecords,
		WALSegments:      len(s.sealed) + 1,
		WALPos:           Pos{Seg: s.seg, Off: s.walBytes}.String(),
		FsyncErrors:      s.fsyncErrs,
		CompactErrors:    s.compactErrs,
		RotateErrors:     s.rotateErrs,
		ArchiveErrors:    s.archiveErrs,
		ScrubPasses:      s.scrubPasses,
		ScrubCorruptions: s.scrubCorruptions,
		QuarantineFiles:  s.quarantineFiles,
		LastError:        s.lastErr,
	}
	if !s.scrubLastAt.IsZero() {
		h.ScrubLastAt = s.scrubLastAt.UTC().Format(time.RFC3339Nano)
	}
	if !s.degradedAt.IsZero() {
		h.DegradedSince = s.degradedAt.UTC().Format(time.RFC3339Nano)
	}
	if !s.lastErrAt.IsZero() {
		h.LastErrorAt = s.lastErrAt.UTC().Format(time.RFC3339Nano)
	}
	return h
}

// Degraded reports whether the store is in its read-only degraded state.
func (s *Store) Degraded() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.degraded
}

// degradeLocked flips the store into the sticky read-only state (first
// call wins) and returns cause wrapped in ErrDegraded. Callers hold s.mu.
func (s *Store) degradeLocked(cause error) error {
	if !s.degraded {
		s.degraded = true
		s.degradedAt = time.Now()
		s.degradeCause = cause.Error()
		s.degradedG.Set(1)
		// Wake any Compact parked behind an online backup; it will see
		// the degraded flag and bail out.
		s.backupsDone.Broadcast()
		s.opts.Logger.Warn("degraded; serving read-only", "error", cause)
	}
	return fmt.Errorf("%w: %w", ErrDegraded, cause)
}

// degradedErrLocked is the error writes get once the store is degraded.
func (s *Store) degradedErrLocked() error {
	return fmt.Errorf("%w: %s", ErrDegraded, s.degradeCause)
}

// noteErrLocked records one maintenance/write failure in the health
// report and the matching metric. Callers hold s.mu.
func (s *Store) noteErrLocked(tally *int64, c *metrics.Counter, err error) {
	*tally++
	c.Inc()
	s.lastErr = err.Error()
	s.lastErrAt = time.Now()
}

// Background-retry tuning: transient fsync/compaction errors are retried
// with capped, jittered exponential backoff before the store degrades.
const (
	bgMaxAttempts = 5
	bgBaseBackoff = 25 * time.Millisecond
	bgMaxBackoff  = 2 * time.Second
)

// retrying runs fn until it succeeds, the store stops/degrades/closes,
// or bgMaxAttempts attempts have failed — at which point the store
// degrades with the final error. Used only by the background goroutine;
// fn must take its own locks.
func (s *Store) retrying(what string, fn func() error) {
	backoff := bgBaseBackoff
	for attempt := 1; ; attempt++ {
		s.mu.RLock()
		stop := s.closed || s.closing || s.degraded
		s.mu.RUnlock()
		if stop {
			return
		}
		err := fn()
		if err == nil || errors.Is(err, ErrDegraded) {
			return
		}
		s.opts.Logger.Warn("background step failed", "step", what,
			"attempt", attempt, "max_attempts", bgMaxAttempts, "error", err)
		if attempt >= bgMaxAttempts {
			s.mu.Lock()
			s.degradeLocked(fmt.Errorf("%s failed after %d attempts: %w", what, attempt, err))
			s.mu.Unlock()
			return
		}
		s.bgRetries.Inc()
		// Full jitter over [backoff/2, backoff] keeps retries from
		// synchronizing while staying deterministic in expectation.
		d := backoff/2 + time.Duration(rand.Int64N(int64(backoff/2)+1))
		select {
		case <-s.stop:
			return
		case <-time.After(d):
		}
		if backoff *= 2; backoff > bgMaxBackoff {
			backoff = bgMaxBackoff
		}
	}
}
