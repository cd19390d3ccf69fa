package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pxml/internal/codec"
	"pxml/internal/vfs"
)

// Recovery runs before the WAL is opened, so all its I/O goes through
// s.fs as well — a FaultFS can therefore exercise recovery-time failure
// paths (unreadable files, failing truncates, failing quarantine writes)
// in addition to runtime ones.

// QuarantinedRecord describes one corrupt region recovery set aside
// instead of failing on.
type QuarantinedRecord struct {
	// Source is "snapshot" or the WAL segment ("wal-00000001") the
	// bytes came from.
	Source string `json:"source"`
	// Offset is the byte offset of the region within its source file.
	Offset int64 `json:"offset"`
	// Path is where the bytes were preserved for inspection.
	Path string `json:"path"`
	// Err is the decode error that condemned the region.
	Err string `json:"error"`
}

// RecoveryReport summarizes what Open found while rebuilding the catalog.
type RecoveryReport struct {
	// SnapshotRecords and WALRecords count the decodable records
	// replayed from each file.
	SnapshotRecords int `json:"snapshot_records"`
	WALRecords      int `json:"wal_records"`
	// Recovered is the number of live instances after replay.
	Recovered int `json:"recovered"`
	// Quarantined lists corrupt regions preserved under quarantine/.
	Quarantined []QuarantinedRecord `json:"quarantined,omitempty"`
	// TruncatedBytes is the length of the torn WAL tail dropped (an
	// append cut short by a crash).
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
	// Segments is how many WAL segment files recovery replayed.
	Segments int `json:"segments,omitempty"`
}

// dirty reports whether recovery changed or repaired on-disk state, which
// Open follows with an immediate compaction.
func (r *RecoveryReport) dirty() bool {
	return len(r.Quarantined) > 0 || r.TruncatedBytes > 0
}

// String renders a one-line summary for startup logs.
func (r *RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovered %d instances (%d snapshot records, %d wal records)",
		r.Recovered, r.SnapshotRecords, r.WALRecords)
	if len(r.Quarantined) > 0 {
		fmt.Fprintf(&b, ", quarantined %d corrupt records", len(r.Quarantined))
	}
	if r.TruncatedBytes > 0 {
		fmt.Fprintf(&b, ", truncated %d-byte torn wal tail", r.TruncatedBytes)
	}
	return b.String()
}

// ErrRetiredLayout rejects a data directory holding a layout this build
// no longer reads: the single-file wal.log or one-file-per-instance
// <name>.pxml files. Match with errors.Is.
var ErrRetiredLayout = errors.New("store: retired on-disk layout")

// checkLayout refuses a directory holding a retired layout's files. It
// only lists dir: recovering next to those files would serve an empty
// catalog over data a later cleanup could delete. Commit ccfb1a5 is the
// last build that migrates them.
func checkLayout(fsys vfs.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if n := e.Name(); n == "wal.log" || filepath.Ext(n) == ".pxml" {
			return fmt.Errorf("%w: %s; open the directory once with a build of commit ccfb1a5, the last that migrates it",
				ErrRetiredLayout, filepath.Join(dir, n))
		}
	}
	return nil
}

// recover rebuilds the in-memory catalog: snapshot first, then every WAL
// segment in ascending order. Corrupt records are quarantined and a torn
// tail on the segment that was being appended to is truncated. Only I/O
// failures (not data corruption) abort recovery.
func (s *Store) recover() (*RecoveryReport, error) {
	report := &RecoveryReport{}
	// Recovery builds the first catalog in s.recm (single-goroutine:
	// nothing else runs before Open starts the committer) and publishes
	// it once, at the end.
	s.recm = make(map[string]*catEntry)
	// The snapshot is the one file large enough to matter at open: map
	// it read-only and defer instance decode to first touch (frame CRCs
	// are still verified eagerly, so corruption quarantines now, not at
	// query time). WAL files are read, not mapped — they are
	// short-lived, carry deletes, and get truncated/rewritten, so
	// aliasing them is not worth the bookkeeping — and settle decodes
	// each name's surviving put once every segment is replayed.
	if _, err := s.recoverFile(snapshotName, "snapshot", false, nil, &report.SnapshotRecords, report); err != nil {
		return nil, err
	}
	segs, err := listSegments(s.fs, s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	wal := make(walReplay)
	for i, n := range segs {
		// Only the highest-numbered segment was being appended to at the
		// time of a crash, so only it gets the truncate-the-torn-tail
		// policy; a torn tail on a sealed segment is real damage and is
		// quarantined instead.
		last := i == len(segs)-1
		source := strings.TrimSuffix(segmentFile(n), segSuffix)
		size, err := s.recoverFile(segmentFile(n), source, last, wal, &report.WALRecords, report)
		if err != nil {
			return nil, err
		}
		report.Segments++
		if last {
			s.seg = n
			s.activeBytes = size // post-truncation; Open may seal it as-is
		} else {
			s.sealed = append(s.sealed, segInfo{n: n, size: size})
		}
	}
	if err := s.settle(wal, report); err != nil {
		return nil, err
	}
	// Pick up quarantine files left by earlier runs so the cap and the
	// gauge reflect the directory, not just this recovery.
	s.pruneQuarantine()
	report.Recovered = len(s.recm)
	// Publish the recovered catalog in one step; readers existing from
	// here on see the complete replay result.
	cur := s.cat.Load()
	s.cat.Store(&catalog{epoch: cur.epoch + 1, m: s.recm})
	s.recm = nil
	s.opts.Logger.Printf("store: %s", report)
	return report, nil
}

// walReplay holds, per name, the WAL put records replay has met since the
// name's last delete, for settle to decode only the one that survives.
type walReplay map[string]*walPuts

// walPuts is one name's put records in replay order, and what the catalog
// held for the name before the first of them: an entry from the snapshot,
// or nothing.
type walPuts struct {
	base *catEntry
	puts []walPut
}

// walPut is one put record: its frame payload, where that sits, and where
// the instance encoding starts in it.
type walPut struct {
	source  string
	off     int64
	payload []byte
	bodyOff int
}

// recoverFile replays one frame file, if present, into the catalog,
// reporting its (post-truncation) size. With truncateTail set — the
// file was being appended to when the process died — a trailing
// region with no later frame to resync on is dropped in place: that is
// the signature of an append cut short by a crash. Otherwise a torn tail
// is quarantined like any other corruption (snapshots and sealed
// segments are never appended to, so a short tail means real damage).
//
// Every frame gets its CRC check, its record header parsed (splitRecord)
// and a put's instance encoding checked to its own frame (CheckBinary);
// a failure quarantines it. The snapshot, mapped (wal nil), installs each
// put as an entry that decodes on first touch. A WAL segment, read, hands
// each put to wal instead, and settle decodes only the put of each name
// that survives every segment (DESIGN §9).
func (s *Store) recoverFile(fileName, source string, truncateTail bool, wal walReplay, nRecords *int, report *RecoveryReport) (int64, error) {
	lazy := wal == nil
	var data []byte
	var src *vfs.Mapping
	if lazy {
		// Map instead of read: the bytes stay in the page cache and lazy
		// entries alias them until first touch. Through a FaultFS (no
		// Mapper capability) this degrades to a ReadFile, so injected
		// read failures still fire.
		m, err := vfs.MapFile(s.fs, s.path(fileName))
		if os.IsNotExist(err) {
			return 0, nil
		}
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		src = m
		data = m.Bytes()
	} else {
		var err error
		data, err = s.fs.ReadFile(s.path(fileName))
		if os.IsNotExist(err) {
			return 0, nil
		}
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
	}
	res, err := scanFrames(data, func(off int64, payload []byte) error {
		op, name, body, derr := splitRecord(payload)
		if derr == nil && op == opPut {
			// Frame CRC already covers these bytes; CheckBinary
			// additionally validates the record's own frame (magic,
			// length, CRC) so a malformed embed quarantines at open.
			// Only the structural decode is deferred.
			derr = codec.CheckBinary(body)
		}
		if derr != nil {
			return s.quarantine(source, off, payload, derr, report)
		}
		switch op {
		case opPut:
			*nRecords++
			if lazy {
				s.recm[name] = s.newLazyEntryLocked(name, payload, len(payload)-len(body), src)
				break
			}
			// Counted and versioned now, as if it decodes; settle takes
			// both back for a surviving put that does not.
			s.nameVers[name]++
			w := wal[name]
			if w == nil {
				w = &walPuts{base: s.recm[name]}
				wal[name] = w
			}
			w.puts = append(w.puts, walPut{source: source, off: off, payload: payload, bodyOff: len(payload) - len(body)})
		case opDelete:
			*nRecords++
			delete(s.recm, name)
			delete(wal, name)
		case opStamp:
			// Commit-time wall-clock marker; no catalog effect.
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, bad := range res.Bad {
		if err := s.quarantine(source, bad.Off, bad.Data, bad.Err, report); err != nil {
			return 0, err
		}
	}
	size := int64(len(data))
	if res.TornTail > 0 {
		if truncateTail {
			if err := s.fs.Truncate(s.path(fileName), res.CleanLen); err != nil {
				return 0, fmt.Errorf("store: truncate torn wal tail: %w", err)
			}
			report.TruncatedBytes += res.TornTail
			size = res.CleanLen
		} else {
			tailOff := size - res.TornTail
			if err := s.quarantine(source, tailOff, data[tailOff:], fmt.Errorf("store: undecodable %s tail", source), report); err != nil {
				return 0, err
			}
		}
	}
	return size, nil
}

// settle installs, for every name the WAL put, the last of its puts that
// decodes, in name order. One that does not is quarantined, uncounted and
// unversioned, as replay would have done on meeting it, and the put before
// it stands in; when none decodes, the name keeps what the snapshot gave
// it, if anything. Only these surviving puts are decoded: a superseded one
// was checked to the snapshot's depth and no further.
func (s *Store) settle(wal walReplay, report *RecoveryReport) error {
	names := make([]string, 0, len(wal))
	for name := range wal {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := wal[name]
		if w.base != nil {
			s.recm[name] = w.base
		} else {
			delete(s.recm, name)
		}
		for i := len(w.puts) - 1; i >= 0; i-- {
			p := w.puts[i]
			pi, err := codec.DecodeBinaryBytes(p.payload[p.bodyOff:])
			if err == nil {
				e := &catEntry{version: s.nameVers[name]}
				e.inst.Store(pi)
				s.recm[name] = e
				break
			}
			err = fmt.Errorf("store: record %q: %w", name, err)
			if qerr := s.quarantine(p.source, p.off, p.payload, err, report); qerr != nil {
				return qerr
			}
			report.WALRecords--
			s.nameVers[name]--
		}
	}
	return nil
}

// quarantine preserves a corrupt byte region under quarantine/ and logs
// it in the report. The file name encodes source and offset, so repeated
// recoveries of the same damage overwrite rather than accumulate.
func (s *Store) quarantine(source string, off int64, data []byte, cause error, report *RecoveryReport) error {
	// The copy is the only one left of the damaged bytes once recovery
	// truncates or rewrites their source, so it is made durable, directory
	// entries included, before recovery goes on.
	qdir := s.path(quarantineDir)
	if err := vfs.MkdirAllSynced(s.fs, qdir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	name := fmt.Sprintf("%s-%08d.bin", source, off)
	path := filepath.Join(qdir, name)
	if err := vfs.PublishFile(s.fs, qdir, name, data); err != nil {
		return fmt.Errorf("store: quarantine: %w", err)
	}
	report.Quarantined = append(report.Quarantined, QuarantinedRecord{
		Source: source,
		Offset: off,
		Path:   path,
		Err:    cause.Error(),
	})
	s.opts.Logger.Printf("store: quarantined %d corrupt bytes from %s@%d to %s: %v", len(data), source, off, path, cause)
	s.pruneQuarantine()
	return nil
}

// pruneQuarantine bounds quarantine/ to Options.QuarantineMax files,
// evicting oldest-first by modification time, and refreshes the file
// count the health snapshot and store_quarantine_files gauge report.
// Keeping evidence of corruption is worth disk space only up to a point:
// a store that keeps hitting damage must not fill the volume with it.
// Eviction failures are ignored — the next quarantine retries.
func (s *Store) pruneQuarantine() {
	qdir := s.path(quarantineDir)
	entries, err := s.fs.ReadDir(qdir)
	if err != nil {
		return
	}
	if max := s.opts.QuarantineMax; max > 0 && len(entries) > max {
		sort.Slice(entries, func(i, j int) bool {
			return quarantineModTime(entries[i]).Before(quarantineModTime(entries[j]))
		})
		for _, e := range entries[:len(entries)-max] {
			if rerr := s.fs.Remove(filepath.Join(qdir, e.Name())); rerr != nil {
				continue
			}
			s.opts.Logger.Printf("store: quarantine over %d-file cap, evicted oldest %s", max, e.Name())
		}
		if entries, err = s.fs.ReadDir(qdir); err != nil {
			return
		}
	}
	s.quarantineFiles = len(entries)
	s.quarantineG.Set(int64(len(entries)))
}

func quarantineModTime(e os.DirEntry) time.Time {
	info, err := e.Info()
	if err != nil {
		return time.Time{}
	}
	return info.ModTime()
}
