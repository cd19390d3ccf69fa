package store

// Follower (replica) apply path. A follower's WAL is a verbatim,
// byte-identical copy of its leader's: ReplApply appends the exact
// framed bytes the leader committed, at the exact positions the leader
// committed them, and rotates to the exact segment numbers the leader
// rotated to (including the gaps a restore leaves in the numbering).
// That makes the leader's Pos directly meaningful on the follower —
// convergence is "follower Pos == leader Pos" — and means a follower
// data directory restarts through the ordinary crash-recovery path, and
// can itself serve the stream to sub-followers.

import (
	"errors"
	"fmt"
)

// ErrFollowerReadOnly rejects local mutations on a follower store: the
// WAL mirrors the leader's, so a local write would fork the timeline.
// Writes belong on the leader. Match with errors.Is.
var ErrFollowerReadOnly = errors.New("store: follower is read-only (route writes to the leader)")

// ErrApplyMismatch reports a ReplApply position that is not the
// follower's current append position — the chunk cannot be applied
// without tearing the byte-identical mirror. The caller should re-read
// the store's Pos and resume streaming from there. Match with errors.Is.
var ErrApplyMismatch = errors.New("store: replication apply position mismatch")

// ApplyResult describes one applied stream chunk.
type ApplyResult struct {
	// Pos is the follower's position after the apply.
	Pos Pos
	// Records counts the catalog mutations installed (stamps excluded).
	Records int
	// StampNanos is the newest wall-clock stamp in the chunk (unix
	// nanoseconds), 0 if the chunk carried none. The leader writes one
	// ahead of each group commit.
	StampNanos int64
}

// ReplApply appends one replicated chunk — raw CRC-framed bytes read
// from a leader's ReadStream — at position from, installs the contained
// records into the catalog, and advances the follower's position. from
// must equal the follower's current position, except that a from in a
// later segment at offset 0 is the leader's rotation cue: the follower
// seals its active segment as-is and continues at exactly from.Seg.
// Every frame is CRC-verified and fully decoded before any byte is
// written; a chunk that does not verify is rejected whole. An append or
// fsync failure degrades the store exactly like a local commit would.
//
// epoch is the leader era the chunk was served under (the stream's
// X-Pxml-Repl-Epoch stamp). A chunk from an epoch lower than the
// highest this follower has seen is refused with ErrEpochFenced —
// bytes from a superseded leader would fork the mirror; epoch 0, below
// every store's epoch, is refused the same way. A higher epoch is
// adopted (and persisted) before any byte lands.
func (s *Store) ReplApply(from Pos, epoch uint64, data []byte) (ApplyResult, error) {
	if !s.roleFollower.Load() {
		return ApplyResult{}, fmt.Errorf("store: ReplApply on a non-follower store")
	}
	// Verify and decode outside the lock: nothing below may land in the
	// WAL unless the whole chunk is well-formed.
	var recs []record
	var out ApplyResult
	res, err := scanFrames(data, func(off int64, payload []byte) error {
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return fmt.Errorf("frame at +%d: %w", off, derr)
		}
		if rec.op == opStamp {
			out.StampNanos = max(out.StampNanos, rec.ts)
		} else {
			out.Records++
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return ApplyResult{}, fmt.Errorf("store: repl chunk rejected: %w", err)
	}
	if res.CleanLen != int64(len(data)) || len(res.Bad) > 0 || res.TornTail > 0 {
		return ApplyResult{}, fmt.Errorf("store: repl chunk rejected: %d of %d bytes decode cleanly (%d bad regions, %d torn tail bytes)",
			res.CleanLen, len(data), len(res.Bad), res.TornTail)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.closing {
		return ApplyResult{}, fmt.Errorf("store: closed")
	}
	if s.degraded {
		return ApplyResult{}, s.degradedErrLocked()
	}
	if epoch < s.epoch {
		return ApplyResult{}, fmt.Errorf("%w: chunk from epoch %d, follower has seen epoch %d",
			ErrEpochFenced, epoch, s.epoch)
	}
	// Adopt-before-apply: if the new era cannot be persisted, the bytes
	// must not land either, or a crash could replay them under the old
	// era's authority.
	if err := s.adoptEpochLocked(epoch); err != nil {
		return ApplyResult{}, fmt.Errorf("store: repl epoch adopt: %w", err)
	}
	switch {
	case from.Seg == s.seg:
		if from.Off != s.walBytes {
			return ApplyResult{}, fmt.Errorf("%w: chunk at %s, follower at %d:%d",
				ErrApplyMismatch, from, s.seg, s.walBytes)
		}
	case from.Seg > s.seg:
		if from.Off != 0 {
			return ApplyResult{}, fmt.Errorf("%w: chunk at %s skips into segment %d mid-stream",
				ErrApplyMismatch, from, from.Seg)
		}
		// The leader rotated (possibly across a restore gap): mirror it.
		if err := s.rotateLocked(from.Seg); err != nil {
			return ApplyResult{}, s.degradeLocked(fmt.Errorf("repl rotate: %w", err))
		}
	default:
		return ApplyResult{}, fmt.Errorf("%w: chunk at %s is behind follower position %d:%d",
			ErrApplyMismatch, from, s.seg, s.walBytes)
	}

	if len(data) > 0 {
		// One catalog publish per applied chunk, mirroring the leader's
		// one-publish-per-group-commit: follower readers step whole
		// epochs, never a partially applied chunk.
		err := s.appendLocked(data, out.Records, func() {
			s.mutateCatalogLocked(func(m map[string]*catEntry) {
				for _, rec := range recs {
					switch rec.op {
					case opPut:
						m[rec.name] = s.newEntryLocked(rec.name, rec.inst)
					case opDelete:
						delete(m, rec.name)
					}
				}
			})
		})
		if err != nil {
			return ApplyResult{}, err
		}
		s.lastReplStamp = max(s.lastReplStamp, out.StampNanos)
	}
	out.Pos = Pos{Seg: s.seg, Off: s.walBytes}
	return out, nil
}

// LastReplStamp returns the newest wall-clock stamp applied via
// ReplApply (unix nanoseconds), 0 before any stamp arrived.
func (s *Store) LastReplStamp() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastReplStamp
}
