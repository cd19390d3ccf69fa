package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pxml/internal/codec"
	"pxml/internal/fixtures"
	"pxml/internal/vfs"
)

// activeSegmentPath returns the highest-numbered WAL segment in dir —
// the file a crashed store was appending to.
func activeSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(vfs.OS, dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s (err=%v)", dir, err)
	}
	return filepath.Join(dir, segmentFile(segs[len(segs)-1]))
}

func appendToFile(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryTruncatesTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{})
	mustPut(t, s, "a", fixtures.Figure2())
	mustPut(t, s, "b", fixtures.Figure2VariedLeaves())
	s.Close()

	// A crash mid-append leaves a frame prefix with no later magic to
	// resync on: the tail must be dropped, not quarantined.
	torn := appendFrame(nil, appendPutRecord(nil, "c", fixtures.Figure2()))
	appendToFile(t, activeSegmentPath(t, dir), torn[:len(torn)-7])

	s2, rep := open(t, dir, Options{})
	defer s2.Close()
	if rep.Recovered != 2 {
		t.Fatalf("recovered %d instances, want 2 (%s)", rep.Recovered, rep)
	}
	if rep.TruncatedBytes != int64(len(torn)-7) {
		t.Fatalf("TruncatedBytes = %d, want %d", rep.TruncatedBytes, len(torn)-7)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("torn tail was quarantined: %s", rep)
	}
	if _, ok := s2.Get("c"); ok {
		t.Fatal("instance from torn (unacknowledged-durable) append reappeared")
	}
	// The repaired store must accept new writes and reopen cleanly.
	mustPut(t, s2, "c", fixtures.Figure2())
	s2.Close()
	s3, rep3 := open(t, dir, Options{})
	defer s3.Close()
	if rep3.Recovered != 3 || rep3.dirty() {
		t.Fatalf("post-repair reopen not clean: %s", rep3)
	}
}

func TestRecoveryQuarantinesCorruptSnapshotRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir, Options{CompactThreshold: -1})
	fig := fixtures.Figure2()
	mustPut(t, s, "a", fig)
	mustPut(t, s, "b", fig)
	mustPut(t, s, "c", fig)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip one payload byte of the first snapshot record ("a"): its CRC
	// fails, the scanner resyncs on record "b"'s magic, and only the
	// damaged record is lost.
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
	if rep.Recovered != 2 {
		t.Fatalf("recovered %d instances, want 2 (%s)", rep.Recovered, rep)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Source != "snapshot" {
		t.Fatalf("quarantine report = %+v", rep.Quarantined)
	}
	if _, err := os.Stat(rep.Quarantined[0].Path); err != nil {
		t.Fatalf("quarantined bytes not preserved: %v", err)
	}
	if _, ok := s2.Get("a"); ok {
		t.Fatal("corrupt record decoded anyway")
	}
	wantInstance(t, s2, "b", fig)
	wantInstance(t, s2, "c", fig)
}

// TestKillAndReopen is the acceptance scenario: a data directory bearing
// a snapshot, live WAL records, a corrupt mid-WAL region, and a torn
// tail. Reopening must recover every committed instance, quarantine the
// bad region, truncate the tail, and leave a store that serves reads and
// reopens cleanly.
func TestKillAndReopen(t *testing.T) {
	dir := t.TempDir()
	fig := fixtures.Figure2()
	varied := fixtures.Figure2VariedLeaves()

	s, _ := open(t, dir, Options{CompactThreshold: -1})
	mustPut(t, s, "a", fig)
	mustPut(t, s, "b", fig)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "c", varied)
	if _, err := s.Delete("b"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	wal := activeSegmentPath(t, dir)
	// A scribbled region that still contains a frame magic, followed by
	// a valid committed record, followed by a mid-append torn tail.
	appendToFile(t, wal, []byte("garbage-then-magic-PXR1-more-garbage"))
	appendToFile(t, wal, appendFrame(nil, appendPutRecord(nil, "d", varied)))
	tail := appendFrame(nil, appendPutRecord(nil, "e", fig))
	appendToFile(t, wal, tail[:len(tail)/2])

	s2, rep := open(t, dir, Options{})
	if rep.Recovered != 3 {
		t.Fatalf("recovered %d instances, want 3 (%s)", rep.Recovered, rep)
	}
	wantInstance(t, s2, "a", fig)
	wantInstance(t, s2, "c", varied)
	wantInstance(t, s2, "d", varied)
	if _, ok := s2.Get("b"); ok {
		t.Fatal("deleted instance resurrected")
	}
	if _, ok := s2.Get("e"); ok {
		t.Fatal("torn-tail instance resurrected")
	}
	if len(rep.Quarantined) == 0 {
		t.Fatalf("corrupt WAL region not quarantined: %s", rep)
	}
	if rep.TruncatedBytes == 0 {
		t.Fatalf("torn tail not truncated: %s", rep)
	}
	qdir := filepath.Join(dir, quarantineDir)
	entries, err := os.ReadDir(qdir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("quarantine dir empty (err=%v)", err)
	}
	// The damaged region must not hide the committed record behind it.
	if _, ok := s2.Get("d"); !ok {
		t.Fatal("record after corrupt region lost")
	}
	s2.Close()

	// Recovery compacts the repaired state, so the next open is clean.
	s3, rep3 := open(t, dir, Options{})
	defer s3.Close()
	if rep3.dirty() {
		t.Fatalf("second reopen still dirty: %s", rep3)
	}
	if rep3.Recovered != 3 {
		t.Fatalf("second reopen recovered %d, want 3", rep3.Recovered)
	}
}

// undecodablePut returns a put record payload for name whose instance
// encoding passes codec.CheckBinary — right magic, length and CRC — but
// whose body is no instance, so only the full decode refuses it.
func undecodablePut(t *testing.T, name string) []byte {
	t.Helper()
	enc := codec.AppendBinary(nil, fixtures.Figure2())
	body := []byte{0xff, 0xff, 0xff, 0xff, 0x07}
	bad := binary.AppendUvarint(append([]byte(nil), enc[:4]...), uint64(len(body)))
	bad = binary.LittleEndian.AppendUint32(append(bad, body...), crc32.ChecksumIEEE(body))
	if err := codec.CheckBinary(bad); err != nil {
		t.Fatalf("crafted encoding fails the frame check: %v", err)
	}
	if _, err := codec.DecodeBinaryBytes(bad); err == nil {
		t.Fatal("crafted encoding decodes")
	}
	payload := binary.AppendUvarint([]byte{opPut}, uint64(len(name)))
	return append(append(payload, name...), bad...)
}

// TestRecoveryQuarantinesCorruptSurvivingPut: replay decodes only each
// name's last put, across segments. When that put passes every frame
// check but does not decode, it is quarantined at open and the put before
// it stands in, with the count and the per-name version it had before the
// bad record was appended; a name whose only put is bad is absent.
func TestRecoveryQuarantinesCorruptSurvivingPut(t *testing.T) {
	dir := t.TempDir()
	fig, varied := fixtures.Figure2(), fixtures.Figure2VariedLeaves()
	s, _ := open(t, dir, Options{CompactThreshold: -1})
	mustPut(t, s, "a", fig)
	mustPut(t, s, "a", varied)
	mustPut(t, s, "b", fig)
	s.Close()
	s, rep := open(t, dir, Options{CompactThreshold: -1})
	wantA, _ := s.Version("a")
	wantRecords := rep.WALRecords
	s.Close()

	wal := activeSegmentPath(t, dir)
	appendToFile(t, wal, appendFrame(nil, undecodablePut(t, "a")))
	appendToFile(t, wal, appendFrame(nil, undecodablePut(t, "z")))

	s2, rep := open(t, dir, Options{CompactThreshold: -1})
	defer s2.Close()
	if len(rep.Quarantined) != 2 || !strings.HasPrefix(rep.Quarantined[0].Source, "wal-") {
		t.Fatalf("quarantine report = %+v", rep.Quarantined)
	}
	for _, q := range rep.Quarantined {
		if _, err := os.Stat(q.Path); err != nil {
			t.Fatalf("quarantined bytes not preserved: %v", err)
		}
	}
	if rep.WALRecords != wantRecords || rep.Recovered != 2 {
		t.Fatalf("%s; want %d wal records and 2 instances", rep, wantRecords)
	}
	wantInstance(t, s2, "a", varied)
	wantInstance(t, s2, "b", fig)
	if v, _ := s2.Version("a"); v != wantA {
		t.Fatalf("version of a = %d, want %d", v, wantA)
	}
	if _, ok := s2.Get("z"); ok {
		t.Fatal("a name whose only put is undecodable was recovered")
	}
}

// TestRecoverySupersededPutChecks: a superseded put still gets the frame
// checks at open — one with a damaged frame CRC is quarantined, and the
// put after it is what the name holds — but not the full decode: one that
// passes the frame checks and does not decode is counted like any put and
// never quarantined, because a later put of its name survives it.
func TestRecoverySupersededPutChecks(t *testing.T) {
	dir := t.TempDir()
	fig, varied := fixtures.Figure2(), fixtures.Figure2VariedLeaves()
	s, _ := open(t, dir, Options{CompactThreshold: -1})
	mustPut(t, s, "b", fig)
	s.Close()

	damaged := appendFrame(nil, appendPutRecord(nil, "a", fig))
	damaged[frameHeaderSize+1] ^= 0xff
	wal := activeSegmentPath(t, dir)
	appendToFile(t, wal, damaged)
	appendToFile(t, wal, appendFrame(nil, undecodablePut(t, "a")))
	appendToFile(t, wal, appendFrame(nil, appendPutRecord(nil, "a", varied)))

	s2, rep := open(t, dir, Options{CompactThreshold: -1})
	defer s2.Close()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Offset == 0 {
		t.Fatalf("quarantine report = %+v", rep.Quarantined)
	}
	if rep.WALRecords != 3 || rep.Recovered != 2 {
		t.Fatalf("%s; want 3 wal records (b and a's two frame-checked puts) and 2 instances", rep)
	}
	wantInstance(t, s2, "a", varied)
	wantInstance(t, s2, "b", fig)
	if v, _ := s2.Version("a"); v != 2 {
		t.Fatalf("version of a = %d, want 2", v)
	}
}

func TestRecoveryGarbageOnlyWAL(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentFile(1)), []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, rep := open(t, dir, Options{})
	defer s.Close()
	if rep.Recovered != 0 || rep.TruncatedBytes == 0 {
		t.Fatalf("garbage WAL: %s", rep)
	}
	mustPut(t, s, "a", fixtures.Figure2())
}

// assertRetiredLayoutRefused writes data as dir/name, the only file of a
// fresh directory, and checks that Open refuses it with ErrRetiredLayout
// naming the file, leaves its bytes alone and writes nothing beside it.
func assertRetiredLayoutRefused(t *testing.T, name string, data []byte) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, err := Open(dir, Options{})
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a retired layout")
	}
	if !errors.Is(err, ErrRetiredLayout) || !strings.Contains(err.Error(), path) {
		t.Fatalf("Open = %v, want ErrRetiredLayout naming %s", err, path)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("%s changed by the refused Open (err=%v)", name, err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("refused Open left %v in the directory (err=%v)", entries, err)
	}
}

// TestRetiredWALLayoutRefused: the single pre-segment wal.log is refused
// with ErrRetiredLayout, and Open writes nothing there.
func TestRetiredWALLayoutRefused(t *testing.T) {
	assertRetiredLayoutRefused(t, "wal.log", appendFrame(nil, appendPutRecord(nil, "a", fixtures.Figure2())))
}

// TestRetiredFlatFileLayoutRefused: a top-level <name>.pxml is refused
// with ErrRetiredLayout, and Open writes nothing there. The leftovers a
// migration did leave behind (a renamed .pxml.corrupt and quarantine/) are
// not a retired layout.
func TestRetiredFlatFileLayoutRefused(t *testing.T) {
	var text bytes.Buffer
	if err := codec.EncodeText(&text, fixtures.Figure2()); err != nil {
		t.Fatal(err)
	}
	assertRetiredLayoutRefused(t, "x.pxml", text.Bytes())

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.pxml.corrupt"), []byte("pxml/1\nnot an instance\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		t.Fatal(err)
	}
	s, rep := open(t, dir, Options{})
	defer s.Close()
	if rep.Recovered != 0 || rep.dirty() {
		t.Fatalf("leftover files recovered as data: %s", rep)
	}
}

func TestScanFramesRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("one"), []byte(""), []byte(strings.Repeat("x", 4096))}
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	var got [][]byte
	res, err := scanFrames(buf, func(off int64, payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TornTail != 0 || len(res.Bad) != 0 || res.CleanLen != int64(len(buf)) {
		t.Fatalf("clean scan reported damage: %+v", res)
	}
	if len(got) != len(payloads) {
		t.Fatalf("scanned %d frames, want %d", len(got), len(payloads))
	}
	for i := range got {
		if string(got[i]) != string(payloads[i]) {
			t.Fatalf("frame %d payload mismatch", i)
		}
	}
}
