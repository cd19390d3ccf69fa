package store

// Leader-epoch persistence and fencing. The epoch is a monotonically
// increasing leadership-era number: every promotion of a follower bumps
// it by one, and the winner of each era is the only node allowed to
// originate writes under it. It is the cluster's split-brain guard:
//
//   - A leader stamps its epoch into every stream response; a follower
//     refuses chunks from any epoch lower than the highest it has seen
//     (ErrEpochFenced), so a zombie leader can never feed stale history
//     into a replica that has moved on.
//   - A follower adopts (and persists) any higher epoch the stream
//     carries, so the knowledge of a new era spreads with replication
//     itself.
//   - A leader told of a higher epoch (peer probe, demote call, or a
//     follower's pull request carrying its highest-seen epoch) fences:
//     sticky read-only, exactly like degraded mode but with a recorded
//     successor to redirect writers to. Fencing is persisted, so a
//     fenced leader that restarts stays fenced until an operator wipes
//     it and rejoins it as a follower via the bootstrap path.
//
// The epoch lives in an fsync'd EPOCH file in the data directory,
// published with vfs.PublishFile like the snapshot. A store without the
// file is at epoch 1, unfenced — the state every store ever written by
// an older build is in. The file is
// deliberately not part of backups: a bootstrapped follower learns the
// leader's epoch from the first stream response instead, and a restored
// store starts a fresh timeline whose era is the restorer's problem.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pxml/internal/vfs"
)

// epochFileName is the fsync'd epoch/fencing state file in the data dir.
const epochFileName = "EPOCH"

// epochMagic is the EPOCH file's first line; bump on layout change.
const epochMagic = "pxml-epoch/1"

// ErrEpochFenced rejects an operation because a higher leader epoch has
// superseded this node's: a fenced leader refuses local writes, and a
// follower refuses replicated chunks stamped with an epoch older than
// the highest it has seen. Match with errors.Is.
var ErrEpochFenced = errors.New("store: leader epoch superseded (fenced)")

// ErrNotFollower rejects Promote on a store that is already a leader.
// Match with errors.Is.
var ErrNotFollower = errors.New("store: not a follower")

// Epoch returns the store's current leader epoch: the era this store
// writes under (leader), or the highest era it has observed (follower).
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// IsFollower reports whether the store currently runs in follower mode.
// Unlike Options.Follower it tracks live role flips (Promote).
func (s *Store) IsFollower() bool { return s.roleFollower.Load() }

// Fenced reports whether the store has been fenced by a higher epoch,
// along with that epoch and the successor leader's URL when known.
func (s *Store) Fenced() (fenced bool, epoch uint64, leaderURL string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fenced, s.epoch, s.fencedLeader
}

// fencedErrLocked builds the write-rejection error for a fenced store.
// Callers hold s.mu (read or write).
func (s *Store) fencedErrLocked() error {
	if s.fencedLeader != "" {
		return fmt.Errorf("%w: epoch %d at %s", ErrEpochFenced, s.epoch, s.fencedLeader)
	}
	return fmt.Errorf("%w: epoch %d", ErrEpochFenced, s.epoch)
}

// Promote flips a follower store into a leader, live: it bumps the
// epoch (durably, fsync'd, before anything else changes), clears any
// fenced state, re-enables local writes, and turns commit stamping on
// so the new leader's followers can measure staleness. Nothing needs
// reopening — the committer, group commit, archiver, and scrubber
// goroutines run in follower mode too (local writes were rejected
// before reaching them), so the role flip re-arms them by simply
// letting mutations through. The caller must have stopped the
// replication puller first; an in-flight ReplApply serializes against
// the flip on s.mu and subsequent applies fail the follower check.
func (s *Store) Promote() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.closing {
		return 0, fmt.Errorf("store: closed")
	}
	if s.degraded {
		return 0, s.degradedErrLocked()
	}
	if !s.roleFollower.Load() {
		return 0, fmt.Errorf("%w: promote needs a follower store", ErrNotFollower)
	}
	next := s.epoch + 1
	// Epoch durability gates the promotion: if the new era cannot be
	// recorded, a crash could resurrect this node believing the old era
	// is still valid, and fencing would have nothing to compare against.
	if err := s.persistEpochLocked(next, false, ""); err != nil {
		return 0, fmt.Errorf("store: promote: %w", err)
	}
	s.epoch = next
	s.fenced = false
	s.fencedLeader = ""
	s.roleFollower.Store(false)
	return next, nil
}

// Fence marks this store superseded by a higher epoch: local writes are
// rejected with ErrEpochFenced from now on (sticky, like degraded mode)
// and leaderURL — when known — is recorded for write redirects. The
// in-memory fence takes effect even if persisting it fails (refusing
// writes is the safety property; durability of the refusal is best
// effort on a store that cannot write its own EPOCH file). Re-fencing
// at the same epoch merely fills in a previously unknown leader URL; only
// the first fence is logged. On a follower, Fence just adopts the higher epoch — a follower is
// already read-only.
func (s *Store) Fence(epoch uint64, leaderURL string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.closing {
		return fmt.Errorf("store: closed")
	}
	if s.roleFollower.Load() {
		return s.adoptEpochLocked(epoch)
	}
	if epoch < s.epoch || (epoch == s.epoch && !s.fenced) {
		return fmt.Errorf("store: fence at epoch %d refused: local epoch %d is not superseded", epoch, s.epoch)
	}
	if s.fenced && epoch == s.epoch && (leaderURL == "" || leaderURL == s.fencedLeader) {
		return nil // idempotent re-fence
	}
	if !s.fenced {
		s.opts.Logger.Warn("fenced: superseded by a higher leader epoch; writes now redirect or fail",
			"epoch", epoch, "leader", leaderURL)
	}
	s.fenced = true
	s.epoch = epoch
	if leaderURL != "" {
		s.fencedLeader = leaderURL
	}
	return s.persistEpochLocked(s.epoch, true, s.fencedLeader)
}

// AdoptEpoch records a higher leader epoch observed out of band of an
// apply — e.g. the epoch header on a caught-up 204, which is how a
// freshly bootstrapped follower (already at the leader's position, so
// no chunk ever flows) learns the current era. Lower or equal epochs
// are a no-op; higher ones persist before they are adopted.
func (s *Store) AdoptEpoch(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.closing {
		return fmt.Errorf("store: closed")
	}
	return s.adoptEpochLocked(epoch)
}

// adoptEpochLocked records a higher epoch observed from the stream
// (persisting it first, so a crash cannot forget the new era). Equal or
// lower epochs are a no-op. Callers hold s.mu.
func (s *Store) adoptEpochLocked(epoch uint64) error {
	if epoch <= s.epoch {
		return nil
	}
	if err := s.persistEpochLocked(epoch, s.fenced, s.fencedLeader); err != nil {
		return err
	}
	s.opts.Logger.Info("adopted leader epoch", "epoch", epoch, "was", s.epoch)
	s.epoch = epoch
	return nil
}

// persistEpochLocked durably replaces the EPOCH file (vfs.PublishFile),
// so a crash leaves either the old file or the new one, never a torn
// mix. Callers hold s.mu.
func (s *Store) persistEpochLocked(epoch uint64, fenced bool, leaderURL string) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s\nepoch %d\n", epochMagic, epoch)
	if fenced {
		buf.WriteString("fenced 1\n")
	}
	if leaderURL != "" {
		fmt.Fprintf(&buf, "leader %s\n", leaderURL)
	}
	if err := vfs.PublishFile(s.fs, s.dir, epochFileName, buf.Bytes()); err != nil {
		return fmt.Errorf("epoch persist: %w", err)
	}
	return nil
}

// loadEpoch recovers the epoch/fencing state on open. A missing file is
// epoch 1, unfenced (a store never promoted or fenced, or a fresh one). A
// file that exists but does not parse is an open error: fencing
// correctness depends on this state, so guessing is worse than failing.
func (s *Store) loadEpoch() error {
	data, err := s.fs.ReadFile(s.path(epochFileName))
	if os.IsNotExist(err) {
		s.epoch = 1
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read %s: %w", epochFileName, err)
	}
	epoch, fenced, leader, perr := parseEpochFile(data)
	if perr != nil {
		return fmt.Errorf("store: %s: %w", epochFileName, perr)
	}
	s.epoch = epoch
	s.fenced = fenced
	s.fencedLeader = leader
	return nil
}

// parseEpochFile decodes the EPOCH layout written by persistEpochLocked.
func parseEpochFile(data []byte) (epoch uint64, fenced bool, leader string, err error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	if !sc.Scan() || sc.Text() != epochMagic {
		return 0, false, "", fmt.Errorf("bad magic (want %q)", epochMagic)
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		switch key {
		case "epoch":
			epoch, err = strconv.ParseUint(val, 10, 64)
			if err != nil || epoch == 0 {
				return 0, false, "", fmt.Errorf("bad epoch %q", val)
			}
		case "fenced":
			fenced = val == "1"
		case "leader":
			leader = val
		default:
			// Unknown keys from a future layout within the same magic are
			// ignored, not fatal.
		}
	}
	if serr := sc.Err(); serr != nil {
		return 0, false, "", serr
	}
	if epoch == 0 {
		return 0, false, "", fmt.Errorf("missing epoch line")
	}
	return epoch, fenced, leader, nil
}
