package store

// Epoch/fencing suite: the EPOCH file round-trips and survives reopen, a
// corrupt file fails open instead of guessing, Promote flips a follower
// into a writable stamping leader live (durably, epoch-first), Fence is
// sticky and persisted, and ReplApply enforces the epoch guard — refuse
// lower, adopt-and-persist higher.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pxml/internal/fixtures"
	"pxml/internal/vfs"
)

func TestEpochFreshStoreIsEpochOneUnfenced(t *testing.T) {
	s, _ := open(t, t.TempDir(), Options{})
	defer s.Close()
	if got := s.Epoch(); got != 1 {
		t.Fatalf("fresh store epoch = %d, want 1", got)
	}
	if fenced, _, _ := s.Fenced(); fenced {
		t.Fatal("fresh store must not be fenced")
	}
	if s.IsFollower() {
		t.Fatal("fresh store without Options.Follower must not be a follower")
	}
}

func TestEpochFileRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		epoch  uint64
		fenced bool
		leader string
	}{
		{"plain", 7, false, ""},
		{"fenced-no-leader", 3, true, ""},
		{"fenced-with-leader", 12, true, "http://new-leader:7654"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf strings.Builder
			fmt.Fprintf(&buf, "%s\nepoch %d\n", epochMagic, tc.epoch)
			if tc.fenced {
				buf.WriteString("fenced 1\n")
			}
			if tc.leader != "" {
				fmt.Fprintf(&buf, "leader %s\n", tc.leader)
			}
			epoch, fenced, leader, err := parseEpochFile([]byte(buf.String()))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if epoch != tc.epoch || fenced != tc.fenced || leader != tc.leader {
				t.Fatalf("parse = (%d, %v, %q), want (%d, %v, %q)",
					epoch, fenced, leader, tc.epoch, tc.fenced, tc.leader)
			}
		})
	}
}

func TestEpochFileParseErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"bad-magic", "pxml-epoch/999\nepoch 3\n"},
		{"missing-epoch", epochMagic + "\nfenced 1\n"},
		{"zero-epoch", epochMagic + "\nepoch 0\n"},
		{"garbage-epoch", epochMagic + "\nepoch banana\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, err := parseEpochFile([]byte(tc.data)); err == nil {
				t.Fatalf("parseEpochFile(%q) = nil error, want failure", tc.data)
			}
		})
	}
	// Unknown keys under the current magic are forward-compatible noise.
	epoch, _, _, err := parseEpochFile([]byte(epochMagic + "\nepoch 4\nfuture-key x\n"))
	if err != nil || epoch != 4 {
		t.Fatalf("unknown key should be ignored: epoch=%d err=%v", epoch, err)
	}
}

func TestEpochCorruptFileFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{})
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, epochFileName), []byte("not an epoch file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open with corrupt EPOCH file must fail, not guess")
	}
}

func TestPromoteBumpsEpochAndEnablesWrites(t *testing.T) {
	dir := t.TempDir()
	f, _ := open(t, dir, Options{Follower: true})
	defer f.Close()
	fig := fixtures.Figure2()
	if err := f.Put("x", fig); !errors.Is(err, ErrFollowerReadOnly) {
		t.Fatalf("pre-promotion Put = %v, want ErrFollowerReadOnly", err)
	}

	epoch, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	if f.IsFollower() {
		t.Fatal("store still reports follower after Promote")
	}
	if got := f.Epoch(); got != 2 {
		t.Fatalf("Epoch() = %d, want 2", got)
	}
	// Writes flow, and the new leader stamps commits so its own
	// followers can measure staleness: a downstream follower replaying
	// the promoted leader's WAL must observe a wall-clock stamp.
	mustPut(t, f, "after", fig)
	down, _ := open(t, t.TempDir(), Options{Follower: true})
	defer down.Close()
	replicate(t, f, down, 1<<20)
	if down.LastReplStamp() == 0 {
		t.Fatal("promoted leader must stamp commits (downstream saw no stamp)")
	}
	// Idempotence guard: promoting a leader is a typed error.
	if _, err := f.Promote(); !errors.Is(err, ErrNotFollower) {
		t.Fatalf("second Promote = %v, want ErrNotFollower", err)
	}

	// The promotion is durable: reopening without Options.Follower keeps
	// the bumped epoch and the acknowledged write.
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s2, _ := open(t, dir, Options{})
	defer s2.Close()
	if got := s2.Epoch(); got != 2 {
		t.Fatalf("reopened epoch = %d, want 2", got)
	}
	wantInstance(t, s2, "after", fig)
}

func TestPromotePersistFailureAbortsFlip(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	f, _ := open(t, dir, Options{Follower: true, FS: ffs})
	defer f.Close()
	// Epoch durability gates the role flip: if the EPOCH file cannot be
	// written, the store must stay a follower.
	ffs.FailAll(vfs.OpCreate, dir)
	if _, err := f.Promote(); err == nil {
		t.Fatal("Promote with failing EPOCH persist must error")
	}
	if !f.IsFollower() {
		t.Fatal("failed Promote must leave the store a follower")
	}
	if got := f.Epoch(); got != 1 {
		t.Fatalf("failed Promote changed epoch to %d", got)
	}
	ffs.Reset()
	if _, err := f.Promote(); err != nil {
		t.Fatalf("Promote after fault cleared: %v", err)
	}
}

func TestFenceStickyAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{})
	fig := fixtures.Figure2()
	mustPut(t, s, "keep", fig)

	// Fencing at one's own epoch without supersession is refused.
	if err := s.Fence(1, "http://usurper"); err == nil {
		t.Fatal("Fence at own epoch must be refused")
	}
	if err := s.Fence(0, ""); err == nil {
		t.Fatal("Fence at lower epoch must be refused")
	}
	if err := s.Fence(3, "http://new-leader:1234"); err != nil {
		t.Fatalf("Fence(3): %v", err)
	}
	fenced, epoch, leader := s.Fenced()
	if !fenced || epoch != 3 || leader != "http://new-leader:1234" {
		t.Fatalf("Fenced() = (%v, %d, %q), want (true, 3, leader URL)", fenced, epoch, leader)
	}
	err := s.Put("rejected", fig)
	if !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("Put on fenced store = %v, want ErrEpochFenced", err)
	}
	if _, err := s.Delete("keep"); !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("Delete on fenced store = %v, want ErrEpochFenced", err)
	}
	wantInstance(t, s, "keep", fig) // reads keep serving

	// Re-fencing at the same epoch is idempotent; a higher epoch moves
	// the fence forward.
	if err := s.Fence(3, "http://new-leader:1234"); err != nil {
		t.Fatalf("idempotent re-fence: %v", err)
	}
	if err := s.Fence(4, ""); err != nil {
		t.Fatalf("Fence(4): %v", err)
	}

	// A restarted fenced leader stays fenced — the split-brain guard
	// survives the process.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s2, _ := open(t, dir, Options{})
	defer s2.Close()
	fenced, epoch, leader = s2.Fenced()
	if !fenced || epoch != 4 || leader != "http://new-leader:1234" {
		t.Fatalf("reopened Fenced() = (%v, %d, %q), want fence preserved", fenced, epoch, leader)
	}
	if err := s2.Put("still-rejected", fig); !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("Put on reopened fenced store = %v, want ErrEpochFenced", err)
	}
}

func TestReplApplyEpochGuard(t *testing.T) {
	ldir := t.TempDir()
	leader, _ := open(t, ldir, Options{Stamps: true})
	defer leader.Close()
	fdir := t.TempDir()
	follower, _ := open(t, fdir, Options{Follower: true})
	defer follower.Close()
	mustPut(t, leader, "a", fixtures.Figure2())
	chunk, err := leader.ReadStream(Pos{Seg: 1, Off: 0}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Epoch != 1 {
		t.Fatalf("leader chunk epoch = %d, want 1", chunk.Epoch)
	}

	// A chunk stamped with a higher epoch is adopted before its bytes
	// land, and the adoption is durable.
	if _, err := follower.ReplApply(chunk.From, 5, chunk.Data); err != nil {
		t.Fatalf("ReplApply with higher epoch: %v", err)
	}
	if got := follower.Epoch(); got != 5 {
		t.Fatalf("follower epoch after adopt = %d, want 5", got)
	}

	// Once epoch 5 has been seen, older-epoch chunks are refused: a
	// zombie leader cannot feed stale history into a moved-on replica.
	mustPut(t, leader, "b", fixtures.Figure2())
	next, err := leader.ReadStream(follower.Pos(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.ReplApply(next.From, next.Epoch, next.Data); !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("ReplApply from stale epoch = %v, want ErrEpochFenced", err)
	}
	// Epoch 0 is below every store's epoch, so the same guard refuses it.
	if _, err := follower.ReplApply(next.From, 0, next.Data); !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("ReplApply with epoch 0 = %v, want ErrEpochFenced", err)
	}

	// The adopted epoch survives follower restart.
	if err := follower.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	f2, _ := open(t, fdir, Options{Follower: true})
	defer f2.Close()
	if got := f2.Epoch(); got != 5 {
		t.Fatalf("reopened follower epoch = %d, want 5", got)
	}
}

func TestEpochFileExcludedFromBackup(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{})
	defer s.Close()
	mustPut(t, s, "a", fixtures.Figure2())
	if _, err := s.Promote(); !errors.Is(err, ErrNotFollower) {
		// Just confirming the leader path; epoch stays 1.
		t.Fatalf("Promote on leader = %v, want ErrNotFollower", err)
	}
	// Bump the epoch via fencing so the EPOCH file definitely exists.
	if err := s.Fence(9, "http://elsewhere"); err != nil {
		t.Fatalf("Fence: %v", err)
	}
	bdir := t.TempDir()
	if _, err := s.Backup(bdir); err != nil {
		t.Fatalf("Backup: %v", err)
	}
	if _, err := os.Stat(filepath.Join(bdir, epochFileName)); !os.IsNotExist(err) {
		t.Fatalf("EPOCH file must not be part of backups (stat err = %v)", err)
	}
}
