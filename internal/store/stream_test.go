package store

// Streaming + follower-apply suite: the replication claims under test
// are that ReadStream serves exactly the committed bytes (never a torn
// active tail), that resume works at every frame boundary including
// exactly at segment rotations, that positions off this store's
// timeline — restore gaps, trimmed history, positions past the
// committed end — come back as ErrTimelineDiverged rather than spliced
// history, and that a follower driven by ReplApply converges to a
// byte-identical, position-identical mirror that survives reopen.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pxml/internal/fixtures"
)

// replicate pulls chunks until follower reaches leader's committed
// position, applying each chunk at its normalized From (which is also
// the rotation cue when it jumps to a fresh segment's start).
func replicate(t *testing.T, leader, follower *Store, maxBytes int) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		from := follower.Pos()
		chunk, err := leader.ReadStream(from, maxBytes)
		if err != nil {
			t.Fatalf("ReadStream(%s): %v", from, err)
		}
		if len(chunk.Data) == 0 && chunk.Next == from {
			return // caught up, positions equal
		}
		applyAt := chunk.From
		if len(chunk.Data) == 0 {
			applyAt = chunk.Next // caught up behind a rotation boundary
		}
		res, err := follower.ReplApply(applyAt, chunk.Epoch, chunk.Data)
		if err != nil {
			t.Fatalf("ReplApply(%s, %d bytes): %v", applyAt, len(chunk.Data), err)
		}
		if len(chunk.Data) > 0 {
			want := Pos{Seg: chunk.From.Seg, Off: chunk.From.Off + int64(len(chunk.Data))}
			if res.Pos != want {
				t.Fatalf("follower pos after apply = %s, want %s", res.Pos, want)
			}
		}
	}
	t.Fatalf("replication did not converge: follower %s, leader %s", follower.Pos(), leader.Pos())
}

// wantSameCatalog asserts the two stores serve identical catalogs.
func wantSameCatalog(t *testing.T, a, b *Store) {
	t.Helper()
	an, bn := a.Names(), b.Names()
	if !reflect.DeepEqual(an, bn) {
		t.Fatalf("catalogs differ:\n  a: %v\n  b: %v", an, bn)
	}
	for _, n := range an {
		pa, _ := a.Get(n)
		pb, _ := b.Get(n)
		if pa.NumObjects() != pb.NumObjects() {
			t.Fatalf("instance %q differs between stores", n)
		}
	}
}

func TestStreamFollowerConvergesAcrossRotations(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	leader, _ := open(t, ldir, Options{SegmentSize: 512, CompactThreshold: -1, Stamps: true})
	defer leader.Close()
	follower, _ := open(t, fdir, Options{Follower: true, CompactThreshold: -1})
	fig := fixtures.Figure2()
	for i := 0; i < 20; i++ {
		mustPut(t, leader, fmt.Sprintf("inst-%02d", i), fig)
	}
	mustPut(t, leader, "dropme", fig)
	if _, err := leader.Delete("dropme"); err != nil {
		t.Fatal(err)
	}

	// Fresh follower has no history: start from the leader's first
	// retained segment (nothing was compacted away).
	if follower.Pos() != (Pos{Seg: 1, Off: 0}) {
		t.Fatalf("fresh follower pos = %s", follower.Pos())
	}
	replicate(t, leader, follower, 0)
	if follower.Pos() != leader.Pos() {
		t.Fatalf("follower pos %s != leader pos %s", follower.Pos(), leader.Pos())
	}
	wantSameCatalog(t, leader, follower)
	if follower.LastReplStamp() == 0 {
		t.Fatal("no wall-clock stamp arrived despite Options.Stamps on the leader")
	}

	// The follower's WAL must be byte-identical to the leader's.
	for _, dir := range []string{ldir} {
		segs, _ := listSegments(leader.fs, dir)
		for _, n := range segs {
			lb, err := os.ReadFile(filepath.Join(ldir, segmentFile(n)))
			if err != nil {
				t.Fatal(err)
			}
			fb, err := os.ReadFile(filepath.Join(fdir, segmentFile(n)))
			if err != nil {
				t.Fatalf("follower missing segment %d: %v", n, err)
			}
			if !bytes.Equal(lb, fb) {
				t.Fatalf("segment %d differs between leader and follower", n)
			}
		}
	}

	// Survives reopen: recovery lands on the same position and catalog,
	// and replication resumes where it left off.
	follower.Close()
	follower2, rep := open(t, fdir, Options{Follower: true, CompactThreshold: -1})
	defer follower2.Close()
	if rep.dirty() {
		t.Fatalf("follower reopen dirty: %s", rep)
	}
	if follower2.Pos() != leader.Pos() {
		t.Fatalf("reopened follower pos %s != leader pos %s", follower2.Pos(), leader.Pos())
	}
	mustPut(t, leader, "after-reopen", fig)
	replicate(t, leader, follower2, 0)
	wantSameCatalog(t, leader, follower2)
}

// TestStreamResumeAtRotationBoundary: a position exactly at a sealed
// segment's end must resume cleanly into the next segment — and when the
// store is caught up there, the empty chunk's Next must still carry the
// rotation cue.
func TestStreamResumeAtRotationBoundary(t *testing.T) {
	dir := t.TempDir()
	leader, _ := open(t, dir, Options{SegmentSize: 300, CompactThreshold: -1})
	defer leader.Close()
	fig := fixtures.Figure2()
	for i := 0; i < 8; i++ {
		mustPut(t, leader, fmt.Sprintf("inst-%d", i), fig)
	}
	leader.mu.RLock()
	sealed := append([]segInfo(nil), leader.sealed...)
	leader.mu.RUnlock()
	if len(sealed) == 0 {
		t.Fatal("no sealed segments to test rotation boundaries with")
	}
	for _, si := range sealed {
		boundary := Pos{Seg: si.n, Off: si.size}
		chunk, err := leader.ReadStream(boundary, 0)
		if err != nil {
			t.Fatalf("ReadStream at rotation boundary %s: %v", boundary, err)
		}
		if chunk.From.Seg <= si.n || chunk.From.Off != 0 {
			t.Fatalf("boundary %s normalized to %s, want the next segment's start", boundary, chunk.From)
		}
		if chunk.From == chunk.End {
			continue // normalized into an empty active segment: caught up
		}
		// The served bytes must be exactly the next segment's prefix.
		want, err := os.ReadFile(filepath.Join(dir, segmentFile(chunk.From.Seg)))
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk.Data) == 0 || !bytes.Equal(chunk.Data, want[:len(chunk.Data)]) {
			t.Fatalf("boundary %s served %d bytes that are not segment %d's prefix",
				boundary, len(chunk.Data), chunk.From.Seg)
		}
		res, serr := scanFrames(chunk.Data, func(int64, []byte) error { return nil })
		if serr != nil || res.CleanLen != int64(len(chunk.Data)) {
			t.Fatalf("boundary %s chunk does not scan clean", boundary)
		}
	}
	// Caught-up at the active segment's current end: empty chunk, Next
	// unchanged.
	end := leader.Pos()
	chunk, err := leader.ReadStream(end, 0)
	if err != nil || len(chunk.Data) != 0 || chunk.Next != end {
		t.Fatalf("caught-up read = (%d bytes, next %s, err %v), want empty at %s",
			len(chunk.Data), chunk.Next, err, end)
	}
}

// TestStreamTimelineGapDiverges: after a data directory is reopened next
// to an archive holding higher-numbered history (the restore/rebuild
// collision Open handles by sealing and jumping past the archive), the
// segment numbers in between are a permanent timeline gap. Streaming
// from inside the gap — where a follower of the other timeline would
// resume — must fail typed, not serve spliced history.
func TestStreamTimelineGapDiverges(t *testing.T) {
	dir := t.TempDir()
	arch := t.TempDir()
	s, _ := open(t, dir, Options{SegmentSize: 300, CompactThreshold: -1, ArchiveDir: arch})
	fig := fixtures.Figure2()
	for i := 0; i < 6; i++ {
		mustPut(t, s, fmt.Sprintf("inst-%d", i), fig)
	}
	s.Close()

	// Simulate the archive having outlived this data directory and
	// gained later history (e.g. from a store restored elsewhere): plant
	// a higher-numbered archived segment, then reopen. Open seals the
	// active segment and continues two past the archive, leaving the
	// numbers in between as the timeline boundary.
	seg1, err := os.ReadFile(filepath.Join(dir, segmentFile(1)))
	if err != nil {
		t.Fatal(err)
	}
	const planted = 9
	if err := os.WriteFile(filepath.Join(arch, segmentFile(planted)), seg1, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _ := open(t, dir, Options{SegmentSize: 300, CompactThreshold: -1, ArchiveDir: arch})
	defer s2.Close()
	if got := s2.Pos().Seg; got != planted+2 {
		t.Fatalf("reopened active segment = %d, want %d (archive max %d + 2)", got, planted+2, planted)
	}
	mustPut(t, s2, "post-gap", fig)

	for _, from := range []Pos{
		{Seg: planted, Off: 0},     // inside the gap
		{Seg: planted + 1, Off: 0}, // the permanent boundary number
	} {
		if _, err := s2.ReadStream(from, 0); !errors.Is(err, ErrTimelineDiverged) {
			t.Fatalf("ReadStream(%s) across the timeline gap: err = %v, want ErrTimelineDiverged", from, err)
		}
	}
	// Past the committed end of the active segment, and past the active
	// segment entirely: both are bytes this leader never wrote.
	end := s2.Pos()
	for _, from := range []Pos{
		{Seg: end.Seg, Off: end.Off + 12},
		{Seg: end.Seg + 3, Off: 0},
		{Seg: 0, Off: 0},
	} {
		if _, err := s2.ReadStream(from, 0); !errors.Is(err, ErrTimelineDiverged) {
			t.Fatalf("ReadStream(%s) past committed history: err = %v, want ErrTimelineDiverged", from, err)
		}
	}
	// The retained pre-gap history still streams fine.
	if _, err := s2.ReadStream(Pos{Seg: 1, Off: 0}, 0); err != nil {
		t.Fatalf("pre-gap history must stay streamable: %v", err)
	}
}

// TestStreamTrimmedHistoryDiverges: a follower further behind than the
// leader's retained segments cannot catch up from the WAL and must be
// told so (it re-bootstraps from a backup instead).
func TestStreamTrimmedHistoryDiverges(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{SegmentSize: 300, CompactThreshold: -1})
	defer s.Close()
	fig := fixtures.Figure2()
	for i := 0; i < 6; i++ {
		mustPut(t, s, fmt.Sprintf("inst-%d", i), fig)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadStream(Pos{Seg: 1, Off: 0}, 0); !errors.Is(err, ErrTimelineDiverged) {
		t.Fatalf("ReadStream of compacted-away history: err = %v, want ErrTimelineDiverged", err)
	}
}

// TestStreamNeverServesTornTail: bytes past the committed position —
// e.g. a torn write that landed in the active segment before the store
// degraded — must never ride the stream.
func TestStreamNeverServesTornTail(t *testing.T) {
	dir := t.TempDir()
	leader, _ := open(t, dir, Options{CompactThreshold: -1})
	defer leader.Close()
	fig := fixtures.Figure2()
	mustPut(t, leader, "a", fig)
	mustPut(t, leader, "b", fig)
	end := leader.Pos()

	// Tear the tail: garbage beyond the committed offset, including a
	// fake frame magic to bait a naive scanner into resyncing on it.
	f, err := os.OpenFile(filepath.Join(dir, segmentFile(end.Seg)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append([]byte("PXR1"), 0xde, 0xad, 0xbe, 0xef)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	chunk, err := leader.ReadStream(Pos{Seg: end.Seg, Off: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(chunk.Data)) != end.Off {
		t.Fatalf("stream served %d bytes, want the %d committed (torn tail leaked)", len(chunk.Data), end.Off)
	}
	res, serr := scanFrames(chunk.Data, func(int64, []byte) error { return nil })
	if serr != nil || res.CleanLen != int64(len(chunk.Data)) || len(res.Bad) > 0 || res.TornTail > 0 {
		t.Fatalf("streamed bytes do not scan clean: clean=%d bad=%d torn=%d", res.CleanLen, len(res.Bad), res.TornTail)
	}

	// A follower applying them accepts the chunk whole.
	follower, _ := open(t, t.TempDir(), Options{Follower: true})
	defer follower.Close()
	if _, err := follower.ReplApply(Pos{Seg: 1, Off: 0}, chunk.Epoch, chunk.Data); err != nil {
		t.Fatalf("follower rejected clean committed bytes: %v", err)
	}
}

// TestStreamSmallChunksCutOnFrameBoundaries: tiny maxBytes must still
// yield parseable chunks that apply in sequence.
func TestStreamSmallChunksCutOnFrameBoundaries(t *testing.T) {
	leader, _ := open(t, t.TempDir(), Options{SegmentSize: 400, CompactThreshold: -1})
	defer leader.Close()
	follower, _ := open(t, t.TempDir(), Options{Follower: true})
	defer follower.Close()
	fig := fixtures.Figure2()
	for i := 0; i < 10; i++ {
		mustPut(t, leader, fmt.Sprintf("inst-%d", i), fig)
	}
	// 64 bytes is far below one framed record: every chunk ships exactly
	// one frame.
	replicate(t, leader, follower, 64)
	wantSameCatalog(t, leader, follower)
	if follower.Pos() != leader.Pos() {
		t.Fatalf("follower %s != leader %s", follower.Pos(), leader.Pos())
	}
}

// TestReplApplyGuards: follower stores refuse local writes, leaders
// refuse ReplApply, and position mismatches are typed.
func TestReplApplyGuards(t *testing.T) {
	leader, _ := open(t, t.TempDir(), Options{})
	defer leader.Close()
	follower, _ := open(t, t.TempDir(), Options{Follower: true})
	defer follower.Close()
	fig := fixtures.Figure2()

	if err := follower.Put("x", fig); !errors.Is(err, ErrFollowerReadOnly) {
		t.Fatalf("follower Put err = %v, want ErrFollowerReadOnly", err)
	}
	if _, err := follower.Delete("x"); !errors.Is(err, ErrFollowerReadOnly) {
		t.Fatalf("follower Delete err = %v, want ErrFollowerReadOnly", err)
	}
	if _, err := leader.ReplApply(Pos{Seg: 1, Off: 0}, 0, nil); err == nil {
		t.Fatal("ReplApply on a leader store must fail")
	}

	mustPut(t, leader, "a", fig)
	chunk, err := leader.ReadStream(Pos{Seg: 1, Off: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.ReplApply(Pos{Seg: 1, Off: 4}, chunk.Epoch, chunk.Data); !errors.Is(err, ErrApplyMismatch) {
		t.Fatalf("misaligned apply err = %v, want ErrApplyMismatch", err)
	}
	// Corrupt chunk: flip one payload byte so the CRC fails.
	bad := append([]byte(nil), chunk.Data...)
	bad[len(bad)-1] ^= 0xff
	if _, err := follower.ReplApply(Pos{Seg: 1, Off: 0}, chunk.Epoch, bad); err == nil {
		t.Fatal("corrupt chunk must be rejected whole")
	}
	if follower.Pos() != (Pos{Seg: 1, Off: 0}) {
		t.Fatalf("rejected chunk advanced the follower to %s", follower.Pos())
	}
}

// TestFollowerCompactKeepsTimeline: a follower compaction (snapshot +
// sealed-segment retirement, no rotation) must not disturb the mirrored
// numbering, and replication must keep flowing after it and across a
// reopen.
func TestFollowerCompactKeepsTimeline(t *testing.T) {
	leader, _ := open(t, t.TempDir(), Options{SegmentSize: 400, CompactThreshold: -1})
	defer leader.Close()
	fdir := t.TempDir()
	follower, _ := open(t, fdir, Options{Follower: true, CompactThreshold: -1})
	fig := fixtures.Figure2()
	for i := 0; i < 12; i++ {
		mustPut(t, leader, fmt.Sprintf("inst-%d", i), fig)
	}
	replicate(t, leader, follower, 0)
	posBefore := follower.Pos()
	if err := follower.Compact(); err != nil {
		t.Fatal(err)
	}
	if follower.Pos() != posBefore {
		t.Fatalf("follower compaction moved the position %s -> %s", posBefore, follower.Pos())
	}
	for i := 0; i < 6; i++ {
		mustPut(t, leader, fmt.Sprintf("post-compact-%d", i), fig)
	}
	replicate(t, leader, follower, 0)
	wantSameCatalog(t, leader, follower)

	follower.Close()
	follower2, rep := open(t, fdir, Options{Follower: true, CompactThreshold: -1})
	defer follower2.Close()
	if rep.dirty() {
		t.Fatalf("follower reopen after compaction dirty: %s", rep)
	}
	if follower2.Pos() != leader.Pos() {
		t.Fatalf("reopened follower %s != leader %s", follower2.Pos(), leader.Pos())
	}
	wantSameCatalog(t, leader, follower2)
}

// TestStreamLagBytes: the lag reported with each chunk must hit zero
// exactly when the follower catches up.
func TestStreamLagBytes(t *testing.T) {
	leader, _ := open(t, t.TempDir(), Options{SegmentSize: 400, CompactThreshold: -1})
	defer leader.Close()
	fig := fixtures.Figure2()
	for i := 0; i < 8; i++ {
		mustPut(t, leader, fmt.Sprintf("inst-%d", i), fig)
	}
	from := Pos{Seg: 1, Off: 0}
	var lastLag int64 = 1 << 62
	for {
		chunk, err := leader.ReadStream(from, 512)
		if err != nil {
			t.Fatal(err)
		}
		if chunk.Next == from {
			if lastLag != 0 {
				t.Fatalf("caught up but last reported lag was %d", lastLag)
			}
			return
		}
		if len(chunk.Data) > 0 && chunk.LagBytes >= lastLag {
			t.Fatalf("lag did not shrink: %d -> %d", lastLag, chunk.LagBytes)
		}
		lastLag = chunk.LagBytes
		from = chunk.Next
	}
}
