package store

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/logging"
	"pxml/internal/metrics"
	"pxml/internal/vfs"
)

// FsyncPolicy controls when the WAL is flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: no acknowledged write is
	// ever lost, at the cost of one fsync per mutation.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs from a background ticker (Options.FsyncEvery):
	// a crash loses at most one interval of writes.
	FsyncInterval
	// FsyncNever leaves flushing to the operating system. Snapshots are
	// still fsynced — the policy only governs the WAL.
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// Options configure a Store. The zero value is usable: fsync on every
// append, compaction when the WAL passes DefaultCompactThreshold, no
// periodic snapshots.
type Options struct {
	// Fsync is the WAL flush policy.
	Fsync FsyncPolicy
	// FsyncEvery is the flush period under FsyncInterval; defaults to
	// 100ms.
	FsyncEvery time.Duration
	// SnapshotInterval, when positive, snapshots the catalog and resets
	// the WAL on this period even if the size threshold is not reached.
	SnapshotInterval time.Duration
	// CompactThreshold is the WAL size in bytes that triggers a
	// background compaction; 0 means DefaultCompactThreshold, negative
	// disables size-triggered compaction.
	CompactThreshold int64
	// CommitBatch bounds how many mutations one group commit may
	// coalesce into a single WAL write + fsync. 0 means
	// DefaultCommitBatch; 1 (or negative) disables batching — every
	// mutation commits alone, the pre-group-commit behavior.
	CommitBatch int
	// CommitDelay is how long the committer waits for more mutations to
	// join a batch after the first one arrives. 0 (the default) commits
	// as soon as the already-queued mutations are drained, so batches
	// form from concurrency alone and an uncontended write never stalls.
	// Positive delays trade single-writer latency for bigger batches
	// under light concurrency.
	CommitDelay time.Duration
	// SegmentSize is the active WAL segment length that triggers rotation
	// to a fresh, monotonically numbered segment; 0 means
	// DefaultSegmentSize, negative disables size-based rotation
	// (compaction still rotates).
	SegmentSize int64
	// ArchiveDir, when non-empty, is a directory sealed WAL segments are
	// hard-linked or copied into as they rotate. Together with a base
	// backup the archive supports point-in-time recovery (see backup.go).
	ArchiveDir string
	// ArchiveRetention caps how many archived segments are kept; once
	// exceeded, the oldest are deleted. 0 keeps everything.
	ArchiveRetention int
	// Follower puts the store in replica mode: local Put/Delete are
	// rejected (the WAL is a verbatim copy of a leader's, advanced only
	// by ReplApply, so a local mutation would fork the timeline) and
	// compaction snapshots without rotating (segment numbering must stay
	// the leader's; see follower.go).
	Follower bool
	// ScrubInterval, when positive, re-reads one at-rest file (the
	// snapshot or a sealed segment) on this cadence, verifying every
	// frame CRC. A mismatch degrades the store: what fsync acknowledged
	// is no longer readable, and serving writes against rotting storage
	// only widens the blast radius.
	ScrubInterval time.Duration
	// QuarantineMax caps how many files quarantine/ retains; the oldest
	// are evicted first. 0 means DefaultQuarantineMax, negative disables
	// the cap.
	QuarantineMax int
	// Registry receives the store_* counters; nil means a private
	// registry no one reads.
	Registry *metrics.Registry
	// Logger receives recovery, compaction and failure reports, tagged
	// component=store; nil discards them.
	Logger *slog.Logger
	// FS is the filesystem the store runs on; nil means the real one
	// (vfs.OS). Tests substitute a vfs.FaultFS to exercise failure
	// paths deterministically.
	FS vfs.FS
}

// DefaultCompactThreshold is the WAL size that triggers compaction when
// Options.CompactThreshold is zero.
const DefaultCompactThreshold = 4 << 20

// DefaultCommitBatch is the group-commit batch bound when
// Options.CommitBatch is zero: how many queued mutations one WAL write +
// fsync may absorb.
const DefaultCommitBatch = 128

// DefaultSegmentSize is the WAL segment rotation threshold when
// Options.SegmentSize is zero. It sits below DefaultCompactThreshold so a
// store under steady write load seals (and, when configured, archives) a
// few segments per compaction cycle.
const DefaultSegmentSize = 1 << 20

// DefaultQuarantineMax bounds quarantine/ when Options.QuarantineMax is
// zero: corrupt regions are kept for inspection, but a store that keeps
// hitting damage must not fill the disk with evidence.
const DefaultQuarantineMax = 64

const defaultFsyncEvery = 100 * time.Millisecond

// archiveRetryEvery is how often the background loop retries archiving
// sealed segments whose copy previously failed.
const archiveRetryEvery = time.Second

// commitQueueDepth is the committer's submission-channel capacity. It
// only bounds how many waiting writers can queue without blocking on the
// channel itself; correctness does not depend on it.
const commitQueueDepth = 256

// maxCommitScratch caps the committer's reusable frame buffer: a batch
// that grew it past this is not kept around pinning memory.
const maxCommitScratch = 4 << 20

// Store names inside the data directory. The WAL itself lives in
// numbered segment files (see segment.go).
const (
	snapshotName  = "snapshot.pxs"
	quarantineDir = "quarantine"
)

// Store is a catalog of named probabilistic instances, durable when opened
// with Open and in memory only when opened with OpenMemory. All methods
// are safe for concurrent use. Instances handed to Put (and returned by
// Get/All) are shared, not copied: callers must treat them as immutable,
// which is the convention across the codebase.
//
// An unrecoverable write error (failed WAL append, failed foreground
// fsync, or background maintenance that keeps failing after retries)
// flips the store into a sticky read-only degraded state: reads keep
// serving from memory, writes return ErrDegraded, and Health reports the
// cause. Degradation is cleared only by reopening the store.
type Store struct {
	dir  string
	opts Options
	fs   vfs.FS

	mu sync.RWMutex
	// archMu serializes the archive's writers: the background archiver
	// and compaction (the only deleter of the sealed local segments the
	// archiver copies). It is always taken before s.mu, never inside it,
	// so the copies themselves can run without stalling readers/writers.
	archMu sync.Mutex

	// cat is the published MVCC catalog (see catalog.go): readers load
	// it with one atomic pointer read; every publisher (group commit,
	// follower apply, recovery) builds a copy-on-write successor under
	// s.mu and stores it here. nameVers is the publish-side per-name
	// version counter feeding catEntry.version; interner dedupes strings
	// across lazy decodes.
	cat      atomic.Pointer[catalog]
	nameVers map[string]uint64
	interner *codec.Interner
	// recm is the catalog under construction during recovery; published
	// into cat (and cleared) before Open starts any goroutine.
	recm map[string]*catEntry

	wal         vfs.File  // active segment, open for append
	seg         uint64    // active segment number
	activeBytes int64     // recovered size of the active segment (set by recover)
	sealed      []segInfo // sealed local segments, ascending by number
	walBytes    int64     // bytes in the active segment
	walTotal    int64     // bytes across active + sealed local segments
	walRecords  int64
	walDirty    bool // appended since last fsync
	closing     bool // Close has begun (background loop draining)
	closed      bool

	// backups counts in-progress online backups. While positive,
	// compaction waits (it would delete or replace the very files a
	// backup is copying); rotation and appends continue freely because
	// they only ever add bytes and files. backupsDone is signalled when
	// the count returns to zero.
	backups     int
	backupsDone *sync.Cond

	// Scrub state (see scrub.go).
	scrubPasses      int64
	scrubCorruptions int64
	scrubLastAt      time.Time
	scrubCursor      int

	quarantineFiles int // files currently under quarantine/

	// Degraded-mode and health state (see health.go).
	degraded     bool
	degradedAt   time.Time
	degradeCause string
	fsyncErrs    int64
	compactErrs  int64
	rotateErrs   int64
	archiveErrs  int64
	lastErr      string
	lastErrAt    time.Time

	walAppends     *metrics.Counter
	walAppendBytes *metrics.Counter
	walFsyncs      *metrics.Counter
	compactions    *metrics.Counter
	fsyncErrsC     *metrics.Counter
	compactErrsC   *metrics.Counter
	bgRetries      *metrics.Counter
	degradedG      *metrics.Gauge
	commitBatches  *metrics.Counter
	commitBatchSz  *metrics.IntHistogram
	rotations      *metrics.Counter
	rotateErrsC    *metrics.Counter
	archivedSegs   *metrics.Counter
	archiveErrsC   *metrics.Counter
	backupsC       *metrics.Counter
	scrubPassesC   *metrics.Counter
	scrubBytesC    *metrics.Counter
	scrubCorruptC  *metrics.Counter
	quarantineG    *metrics.Gauge
	segmentsG      *metrics.Gauge
	lazyErrsC      *metrics.Counter

	// Group commit: Put/Delete enqueue framed records on commits and a
	// single committer goroutine coalesces them into one WAL write + one
	// fsync per batch. submitWG tracks in-flight submissions so Close can
	// wait for them before stopping the committer.
	commits    chan *commitReq
	commitDone chan struct{}
	submitWG   sync.WaitGroup

	// Committer-owned scratch (single goroutine, no locking).
	commitBuf   []byte
	commitBatch []*commitReq
	stampBuf    []byte

	stop     chan struct{}
	done     chan struct{}
	kick     chan struct{}
	archKick chan struct{}

	// commitSignal is closed and replaced whenever the WAL position
	// advances; CommitSignal hands it to long-polling stream readers.
	commitSignal chan struct{}

	// lastReplStamp is the newest stamp applied via ReplApply (follower
	// mode only), in unix nanoseconds.
	lastReplStamp int64

	// Leader-epoch and fencing state (see epoch.go). epoch/fenced/
	// fencedLeader are guarded by mu and mirrored in the fsync'd EPOCH
	// file. roleFollower starts as Options.Follower but is an atomic
	// because Promote flips the role live while Put/Delete read it
	// without holding mu.
	epoch        uint64
	fenced       bool
	fencedLeader string
	roleFollower atomic.Bool
}

// commitReq is one mutation waiting for its group commit. The payload is
// the encoded record (not yet framed); done carries the batch outcome
// back to the submitting goroutine. Requests and their payload buffers
// are pooled — the submitter returns them after reading done.
type commitReq struct {
	op      byte
	name    string
	inst    *core.ProbInstance
	payload []byte
	done    chan error
	// existed is a delete's outcome, set by installLocked before done.
	existed bool
}

var commitReqPool = sync.Pool{
	New: func() any { return &commitReq{done: make(chan error, 1)} },
}

// freeCommitReq recycles a request once its submitter has the outcome.
func freeCommitReq(req *commitReq) {
	req.inst = nil
	req.name = ""
	req.existed = false
	req.payload = req.payload[:0]
	commitReqPool.Put(req)
}

// Open opens (creating if necessary) the store in dir, runs crash
// recovery, and starts the background maintenance goroutine. The returned
// report describes what recovery found; it is never nil when the error is
// nil. A directory in a retired layout (a wal.log or top-level .pxml
// files) is refused with ErrRetiredLayout and left untouched.
func Open(dir string, opts Options) (*Store, *RecoveryReport, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("store: empty directory")
	}
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = defaultFsyncEvery
	}
	if opts.CompactThreshold == 0 {
		opts.CompactThreshold = DefaultCompactThreshold
	}
	if opts.CommitBatch == 0 {
		opts.CommitBatch = DefaultCommitBatch
	}
	if opts.CommitBatch < 1 {
		opts.CommitBatch = 1
	}
	if opts.SegmentSize == 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if opts.QuarantineMax == 0 {
		opts.QuarantineMax = DefaultQuarantineMax
	}
	if opts.FS == nil {
		opts.FS = vfs.OS
	}
	if err := vfs.MkdirAllSynced(opts.FS, dir); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if err := checkLayout(opts.FS, dir); err != nil {
		return nil, nil, err
	}
	if opts.ArchiveDir != "" {
		if err := vfs.MkdirAllSynced(opts.FS, opts.ArchiveDir); err != nil {
			return nil, nil, fmt.Errorf("store: archive dir: %w", err)
		}
	}
	s := newStore(dir, opts)
	s.fs = opts.FS
	s.interner = codec.NewInterner()
	s.commits = make(chan *commitReq, commitQueueDepth)
	s.commitDone = make(chan struct{})
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.kick = make(chan struct{}, 1)
	s.archKick = make(chan struct{}, 1)
	s.commitSignal = make(chan struct{})
	s.roleFollower.Store(opts.Follower)
	report, err := s.recover()
	if err != nil {
		return nil, nil, err
	}
	if err := s.loadEpoch(); err != nil {
		return nil, nil, err
	}
	var archMax uint64
	if opts.ArchiveDir != "" {
		if archived, aerr := listSegments(s.fs, opts.ArchiveDir); aerr == nil && len(archived) > 0 {
			archMax = archived[len(archived)-1]
		}
	}
	switch {
	case s.seg == 0:
		// Fresh store. Segment numbers must never be reused, including
		// against an archive that outlived a rebuilt data directory — a
		// collision would overwrite history the archive is keeping.
		s.seg = archMax + 1
	case archMax >= s.seg:
		// The recovered active segment's number is already archived: this
		// data directory was restored to an earlier point (or rebuilt)
		// next to an archive holding different history under the same and
		// higher numbers. Seal the active segment exactly as recovered and
		// continue two past the archive. The untouched number in between
		// is a permanent gap marking the timeline boundary — point-in-time
		// overlays stop at the first missing number, so they can never
		// splice the two histories together — and the archiver tolerates
		// the sealed collisions because their bytes are prefixes of (or
		// identical to) the archived originals.
		s.sealed = append(s.sealed, segInfo{n: s.seg, size: s.activeBytes})
		s.opts.Logger.Info("active segment collides with archived history; sealed it",
			"segment", s.seg, "archive_max", archMax, "next_segment", archMax+2)
		s.seg = archMax + 2
	}
	for _, si := range s.sealed {
		s.walTotal += si.size
	}
	if err := s.openSegmentLocked(s.seg); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	// A recovery that had to quarantine or truncate leaves the on-disk
	// state it repaired around; compact immediately so the next open
	// starts from a clean snapshot and an empty WAL.
	if report.dirty() {
		if err := s.Compact(); err != nil {
			s.wal.Close()
			return nil, nil, err
		}
	}
	reg := s.opts.Registry
	reg.Counter("store_recovered_instances").Add(int64(s.Len()))
	reg.Counter("store_recovery_quarantined").Add(int64(len(report.Quarantined)))
	reg.Counter("store_recovery_truncated_bytes").Add(report.TruncatedBytes)
	go s.committer()
	go s.background()
	return s, report, nil
}

// OpenMemory returns a store that keeps its catalog in memory only. It
// has the durable store's catalog, per-name versions, Memo and sorted
// names, and Put and Delete publish a catalog successor directly: no
// record is encoded, no goroutine runs, and no file is touched. Its
// counters live in a private registry. Close does nothing. The methods
// that read or write the data directory or its WAL (Backup, Scrub,
// Compact, Promote, Fence, AdoptEpoch, ReplApply, ReadStream,
// CommitSignal) are for durable stores only; see Durable.
func OpenMemory() *Store { return newStore("", Options{}) }

// newStore builds what every store has, durable or not: an empty
// catalog, its counters, and a logger. A nil Options.Registry becomes a
// private registry and a nil Options.Logger one that discards, so no
// counter update or report needs a nil check; every report carries
// component=store.
func newStore(dir string, opts Options) *Store {
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	opts.Logger = logging.OrDiscard(opts.Logger).With("component", "store")
	reg := opts.Registry
	s := &Store{
		dir:      dir,
		opts:     opts,
		nameVers: make(map[string]uint64),

		walAppends:     reg.Counter("store_wal_appends"),
		walAppendBytes: reg.Counter("store_wal_append_bytes"),
		walFsyncs:      reg.Counter("store_wal_fsyncs"),
		compactions:    reg.Counter("store_compactions"),
		fsyncErrsC:     reg.Counter("store_fsync_errors"),
		compactErrsC:   reg.Counter("store_compact_errors"),
		bgRetries:      reg.Counter("store_bg_retries"),
		degradedG:      reg.Gauge("store_degraded"),
		commitBatches:  reg.Counter("store_commit_batches"),
		commitBatchSz:  reg.IntHistogram("store_commit_batch_size"),
		rotations:      reg.Counter("store_wal_rotations"),
		rotateErrsC:    reg.Counter("store_rotate_errors"),
		archivedSegs:   reg.Counter("store_archived_segments"),
		archiveErrsC:   reg.Counter("store_archive_errors"),
		backupsC:       reg.Counter("store_backups"),
		scrubPassesC:   reg.Counter("store_scrub_passes"),
		scrubBytesC:    reg.Counter("store_scrub_bytes"),
		scrubCorruptC:  reg.Counter("store_scrub_corruptions"),
		quarantineG:    reg.Gauge("store_quarantine_files"),
		segmentsG:      reg.Gauge("store_wal_segments"),
		lazyErrsC:      reg.Counter("store_lazy_decode_errors"),
	}
	s.cat.Store(emptyCatalog())
	s.backupsDone = sync.NewCond(&s.mu)
	return s
}

// Durable reports whether the store persists to a data directory (Open)
// rather than keeping its catalog in memory only (OpenMemory).
func (s *Store) Durable() bool { return s.dir != "" }

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Put durably records name → pi and installs it in the catalog. The
// write joins the next group commit: the committer goroutine coalesces
// concurrent mutations into one WAL write + one fsync, and Put returns
// only after its batch is appended (and, under FsyncAlways, on stable
// storage) and the instance installed. A degraded store rejects Put with
// an error matching ErrDegraded and leaves the catalog untouched. A
// memory store installs the instance directly.
func (s *Store) Put(name string, pi *core.ProbInstance) error {
	if name == "" {
		return fmt.Errorf("store: empty instance name")
	}
	if pi == nil {
		return fmt.Errorf("store: nil instance %q", name)
	}
	if s.roleFollower.Load() {
		return fmt.Errorf("%w: put %q", ErrFollowerReadOnly, name)
	}
	req := commitReqPool.Get().(*commitReq)
	req.op, req.name, req.inst = opPut, name, pi
	if s.Durable() {
		req.payload = appendPutRecord(req.payload[:0], name, pi)
	}
	_, err := s.submit(req)
	return err
}

// Delete durably removes name from the catalog via the same group-commit
// path as Put, reporting whether name was live. Of racing deletes of one
// name exactly one reports true: existed is decided as the delete is
// installed. Deleting an absent name is a no-op (and writes nothing).
// A degraded store rejects Delete with an error matching ErrDegraded.
func (s *Store) Delete(name string) (existed bool, err error) {
	if s.roleFollower.Load() {
		return false, fmt.Errorf("%w: delete %q", ErrFollowerReadOnly, name)
	}
	s.mu.RLock()
	if s.degraded {
		err := s.degradedErrLocked()
		s.mu.RUnlock()
		return false, err
	}
	if s.fenced {
		err := s.fencedErrLocked()
		s.mu.RUnlock()
		return false, err
	}
	s.mu.RUnlock()
	if _, ok := s.cat.Load().m[name]; !ok {
		return false, nil
	}
	req := commitReqPool.Get().(*commitReq)
	req.op, req.name, req.inst = opDelete, name, nil
	if s.Durable() {
		req.payload = appendDeleteRecord(req.payload[:0], name)
	}
	return s.submit(req)
}

// submit hands one mutation to the committer and waits for its batch's
// outcome, returning a delete's existed with it. The closing check and
// the WaitGroup increment happen under the same read lock Close writes
// `closing` under, so Close observes every accepted submission before it
// stops the committer — a submitted request is never abandoned. A memory
// store installs the mutation itself, under s.mu.
func (s *Store) submit(req *commitReq) (bool, error) {
	defer freeCommitReq(req)
	if !s.Durable() {
		s.mu.Lock()
		s.installLocked([]*commitReq{req})
		s.mu.Unlock()
		return req.existed, nil
	}
	s.mu.RLock()
	if s.closed || s.closing {
		s.mu.RUnlock()
		return false, fmt.Errorf("store: closed")
	}
	if s.degraded {
		err := s.degradedErrLocked()
		s.mu.RUnlock()
		return false, err
	}
	if s.fenced {
		err := s.fencedErrLocked()
		s.mu.RUnlock()
		return false, err
	}
	s.submitWG.Add(1)
	s.mu.RUnlock()
	s.commits <- req
	err := <-req.done
	s.submitWG.Done()
	return req.existed, err
}

// Get returns the named instance. Lock-free: one atomic catalog load
// plus, for entries recovered lazily from the snapshot, a one-time
// materialization on first touch (see catalog.go).
func (s *Store) Get(name string) (*core.ProbInstance, bool) {
	e, ok := s.cat.Load().m[name]
	if !ok {
		return nil, false
	}
	return s.entryInstance(name, e)
}

// Names returns the catalog names in sorted order. Lock-free; the sort
// runs at most once per published catalog and is cached, so steady-state
// calls cost one copy.
func (s *Store) Names() []string {
	ns := s.cat.Load().sortedNames()
	out := make([]string, len(ns))
	copy(out, ns)
	return out
}

// All returns a copy of the catalog map (the instances themselves are
// shared). Lock-free; lazy entries materialize as they are visited, and
// entries whose materialization failed are omitted.
func (s *Store) All() map[string]*core.ProbInstance {
	c := s.cat.Load()
	out := make(map[string]*core.ProbInstance, len(c.m))
	for n, e := range c.m {
		if pi, ok := s.entryInstance(n, e); ok {
			out[n] = pi
		}
	}
	return out
}

// Len returns the number of catalogued instances. Lock-free.
func (s *Store) Len() int {
	return len(s.cat.Load().m)
}

// WALSize returns the current WAL length in bytes, summed across the
// active segment and any sealed segments not yet superseded by a
// snapshot.
func (s *Store) WALSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.walTotal
}

// Pos returns the store's current WAL position — the append offset in
// the active segment. Positions advance monotonically for the life of
// the data directory (segment numbers are never reused) and always lie
// on a frame boundary, so a Pos is a valid point-in-time recovery
// target.
func (s *Store) Pos() Pos {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Pos{Seg: s.seg, Off: s.walBytes}
}

// committer is the single goroutine that drains the submission channel,
// forms batches, and commits them. It exits on s.stop — Close waits for
// in-flight submissions first, so the final drain below only mops up
// requests that were already queued.
func (s *Store) committer() {
	defer close(s.commitDone)
	for {
		select {
		case req := <-s.commits:
			s.commitGroup(s.collectBatch(req))
		case <-s.stop:
			for {
				select {
				case req := <-s.commits:
					s.commitGroup(s.collectBatch(req))
				default:
					return
				}
			}
		}
	}
}

// collectBatch grows a batch around the first request: it always drains
// whatever is already queued, and with CommitDelay set it keeps waiting
// for late joiners until the delay expires or the batch is full.
func (s *Store) collectBatch(first *commitReq) []*commitReq {
	batch := append(s.commitBatch[:0], first)
	max := s.opts.CommitBatch
	var timeout <-chan time.Time
	if d := s.opts.CommitDelay; d > 0 && max > 1 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
collect:
	for len(batch) < max {
		select {
		case req := <-s.commits:
			batch = append(batch, req)
			continue
		default:
		}
		if timeout == nil {
			break
		}
		select {
		case req := <-s.commits:
			batch = append(batch, req)
		case <-timeout:
			break collect
		case <-s.stop:
			break collect
		}
	}
	return batch
}

// commitGroup frames the batch into one buffer, appends and (per policy)
// fsyncs it as a single WAL write, installs the mutations, and fans the
// outcome out to every waiter. An append or foreground-fsync failure
// degrades the store and fails the whole batch: a short write can leave
// a torn frame at the tail, and after a failed fsync the kernel may
// silently drop the dirty pages, so no write in the batch can be trusted
// — recovery on the next open truncates whatever tail actually landed.
func (s *Store) commitGroup(batch []*commitReq) {
	// One wall-clock stamp ahead of each batch gives the WAL the timeline
	// point-in-time restore cuts on, and gives replication followers the
	// wall-clock trail staleness is measured against. Replay ignores it.
	s.stampBuf = appendStampRecord(s.stampBuf[:0], time.Now().UnixNano())
	buf := appendFrame(s.commitBuf[:0], s.stampBuf)
	for _, r := range batch {
		buf = appendFrame(buf, r.payload)
	}
	s.mu.Lock()
	err := s.commitLocked(buf, batch)
	s.mu.Unlock()
	for i, r := range batch {
		r.done <- err
		batch[i] = nil // don't pin pooled requests through the scratch slice
	}
	if cap(buf) <= maxCommitScratch {
		s.commitBuf = buf[:0]
	} else {
		s.commitBuf = nil
	}
	s.commitBatch = batch[:0]
}

// commitLocked appends one batch through appendLocked and rotates the
// active segment once it passes Options.SegmentSize. Callers hold s.mu.
func (s *Store) commitLocked(frames []byte, batch []*commitReq) error {
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.degraded {
		return s.degradedErrLocked()
	}
	if err := s.appendLocked(frames, len(batch), func() { s.installLocked(batch) }); err != nil {
		return err
	}
	s.commitBatches.Inc()
	s.commitBatchSz.Observe(int64(len(batch)))
	if s.opts.SegmentSize > 0 && s.walBytes >= s.opts.SegmentSize {
		if err := s.rotateLocked(s.seg + 1); err != nil {
			// The batch is already durable in the (oversized) active
			// segment; a failed rotation is a maintenance problem, not a
			// commit failure.
			s.noteErrLocked(&s.rotateErrs, s.rotateErrsC, fmt.Errorf("wal rotate: %w", err))
		}
	}
	return nil
}

// appendLocked is the one way bytes enter the WAL, for a leader's group
// commit and a follower's replicated chunk alike: it writes frames to the
// active segment, accounts them (records counts the catalog mutations
// they carry), fsyncs them under FsyncAlways, runs install only then
// (persist before install), signals stream readers, and nudges
// compaction. A write or fsync failure degrades the store and install
// never runs: a short write can leave a torn frame at the tail, and after
// a failed fsync the kernel may drop the dirty pages. Callers hold s.mu.
func (s *Store) appendLocked(frames []byte, records int, install func()) error {
	if _, err := s.wal.Write(frames); err != nil {
		return s.degradeLocked(fmt.Errorf("wal append: %w", err))
	}
	n := int64(len(frames))
	s.walBytes += n
	s.walTotal += n
	s.walRecords += int64(records)
	s.walDirty = true
	s.walAppends.Add(int64(records))
	s.walAppendBytes.Add(n)
	if s.opts.Fsync == FsyncAlways {
		if err := s.syncLocked(); err != nil {
			return s.degradeLocked(err)
		}
	}
	install()
	s.signalCommitLocked()
	s.maybeKickLocked()
	return nil
}

// installLocked publishes the batch's mutations as one copy-on-write
// catalog successor: readers go from epoch N to N+1 in a single atomic
// step, never observing a partially applied group commit. A delete's
// existed is decided here, so a second delete of one name in the same
// batch finds it already gone. Callers hold s.mu.
func (s *Store) installLocked(batch []*commitReq) {
	s.mutateCatalogLocked(func(m map[string]*catEntry) {
		for _, r := range batch {
			switch r.op {
			case opPut:
				m[r.name] = s.newEntryLocked(r.name, r.inst)
			case opDelete:
				_, r.existed = m[r.name]
				delete(m, r.name)
			}
		}
	})
}

// rotateLocked seals the active segment and switches appends to segment
// next, which must exceed the active segment's number: the committer and
// compaction pass s.seg+1, and follower apply passes the leader's number
// to mirror its numbering, including the gaps a restore leaves. The
// outgoing segment is fsynced first, so a sealed file is complete and
// immutable from the moment it stops being active — that invariant is
// what lets backup, archive, and scrub read sealed segments without
// coordination. On any failure the store keeps writing to the old active
// segment, exactly as before. Callers hold s.mu.
func (s *Store) rotateLocked(next uint64) error {
	if next <= s.seg {
		return fmt.Errorf("rotate to segment %d: not past active segment %d", next, s.seg)
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.openSegmentLocked(next); err != nil {
		return err
	}
	s.rotations.Inc()
	s.archKickLocked()
	return nil
}

// openSegmentLocked makes segment n the active segment, for Open and for
// rotation alike: it opens the file for appending (creating it if absent)
// and fsyncs the data directory, so the entry survives power loss before
// any append to it can be acknowledged. Only then does it seal the
// previous active segment, if any, and switch appends to n. On failure
// the store is unchanged; a file the call created stays behind, empty,
// for a later open or rotation to reuse. Callers hold s.mu.
func (s *Store) openSegmentLocked(n uint64) error {
	f, err := s.fs.OpenAppend(s.path(segmentFile(n)))
	if err != nil {
		return fmt.Errorf("open segment %d: %w", n, err)
	}
	size, err := f.Size()
	if err == nil {
		err = s.fs.SyncDir(s.dir)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("open segment %d: %w", n, err)
	}
	if s.wal != nil {
		s.sealed = append(s.sealed, segInfo{n: s.seg, size: s.walBytes})
		if cerr := s.wal.Close(); cerr != nil {
			s.opts.Logger.Warn("close sealed segment failed", "segment", s.seg, "error", cerr)
		}
	}
	s.wal, s.seg, s.walBytes, s.walDirty = f, n, size, false
	s.walTotal += size
	s.segmentsG.Set(int64(len(s.sealed) + 1))
	return nil
}

// archKickLocked nudges the background archiver after a rotation.
func (s *Store) archKickLocked() {
	if s.opts.ArchiveDir == "" {
		return
	}
	select {
	case s.archKick <- struct{}{}:
	default:
	}
}

func (s *Store) syncLocked() error {
	if !s.walDirty {
		return nil
	}
	if err := s.wal.Sync(); err != nil {
		err = fmt.Errorf("wal fsync: %w", err)
		s.noteErrLocked(&s.fsyncErrs, s.fsyncErrsC, err)
		return fmt.Errorf("store: %w", err)
	}
	s.walDirty = false
	s.walFsyncs.Inc()
	return nil
}

// Sync forces the WAL to stable storage regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if s.degraded {
		return s.degradedErrLocked()
	}
	return s.syncLocked()
}

// maybeKickLocked nudges the background goroutine when the WAL (active
// plus sealed segments) has grown past the compaction threshold.
func (s *Store) maybeKickLocked() {
	if s.opts.CompactThreshold < 0 || s.walTotal < s.opts.CompactThreshold {
		return
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Compact writes a fresh snapshot of the catalog and retires the WAL
// segments it supersedes. The write protocol is crash-safe at every
// step: the active segment is sealed by rotation, every sealed segment
// is durably archived (when archiving is on), the snapshot is published
// with vfs.PublishFile, and only then are the superseded local segments
// deleted. A crash between
// the rename and the deletions merely replays the sealed segments over
// the new snapshot, which is idempotent because records carry full
// instance values and replay order (snapshot, then segments ascending)
// matches commit order.
//
// Compaction waits while an online backup is in progress: a backup is
// copying exactly the files compaction would replace or delete.
// Rotation and appends continue freely under a backup — they only ever
// add bytes and files.
func (s *Store) Compact() error {
	// archMu serializes compaction with the background archiver: both
	// copy sealed segments into the archive, and compaction is the only
	// deleter of the local copies the archiver reads.
	s.archMu.Lock()
	defer s.archMu.Unlock()
	s.mu.Lock()
	for s.backups > 0 && !s.closed && !s.degraded {
		s.backupsDone.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("store: closed")
	}
	if s.degraded {
		err := s.degradedErrLocked()
		s.mu.Unlock()
		return err
	}
	// Compaction failures are retryable, not degrading by themselves:
	// nothing below touches live state until the snapshot rename lands,
	// and segments left undeleted merely replay over the fresh snapshot
	// (idempotently) on the next open. The background loop retries with
	// backoff and degrades only when the errors persist.
	// A follower never rotates on its own: segment boundaries must mirror
	// the leader's (ReplApply rotates on the leader's cue). Its snapshot
	// supersedes the sealed segments only; the active segment replays
	// over the snapshot on the next open, which is idempotent because
	// records carry full instance values.
	if s.walBytes > 0 && !s.roleFollower.Load() {
		// Seal the active segment so the snapshot supersedes whole
		// segments only; a failed rotation leaves the store exactly as it
		// was.
		if err := s.rotateLocked(s.seg + 1); err != nil {
			err = fmt.Errorf("store: compact rotate: %w", err)
			s.noteErrLocked(&s.compactErrs, s.compactErrsC, err)
			s.mu.Unlock()
			return err
		}
	}
	pending := s.pendingArchiveLocked()
	s.mu.Unlock()

	// Archive before delete, copying outside s.mu (sealed segments are
	// immutable, so writers keep flowing): once a sealed segment is gone
	// locally, the archive is the only place the point-in-time recovery
	// chain can read it from, so compaction refuses to destroy what it
	// could not archive.
	if s.opts.ArchiveDir != "" {
		if err := s.archiveSegments(pending); err != nil {
			err = fmt.Errorf("store: archive before compact: %w", err)
			s.mu.Lock()
			s.noteErrLocked(&s.compactErrs, s.compactErrsC, err)
			s.mu.Unlock()
			return err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// A backup may have started while the lock was released for the
	// archive copies; it is reading the very files deleted below.
	for s.backups > 0 && !s.closed && !s.degraded {
		s.backupsDone.Wait()
	}
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.degraded {
		return s.degradedErrLocked()
	}
	if err := s.writeSnapshotLocked(); err != nil {
		s.noteErrLocked(&s.compactErrs, s.compactErrsC, err)
		return err
	}
	// The snapshot now carries everything the sealed segments did. With
	// archiving on, only archived segments may be deleted — a rotation
	// that slipped in while the lock was released can have sealed a
	// segment the archiver has not copied yet; it stays until the next
	// compaction.
	keep := s.sealed[:0]
	var rmErr error
	for i := range s.sealed {
		si := s.sealed[i]
		if rmErr != nil || (s.opts.ArchiveDir != "" && !si.archived) {
			keep = append(keep, si)
			continue
		}
		if err := s.fs.Remove(s.path(segmentFile(si.n))); err != nil {
			rmErr = err
			keep = append(keep, si)
			continue
		}
		s.walTotal -= si.size
	}
	s.sealed = keep
	s.segmentsG.Set(int64(len(s.sealed) + 1))
	if rmErr != nil {
		err := fmt.Errorf("store: remove sealed segment: %w", rmErr)
		s.noteErrLocked(&s.compactErrs, s.compactErrsC, err)
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		err = fmt.Errorf("store: dir fsync: %w", err)
		s.noteErrLocked(&s.compactErrs, s.compactErrsC, err)
		return err
	}
	s.walRecords = 0
	s.compactions.Inc()
	s.opts.Logger.Info("compacted", "instances", s.Len(), "file", snapshotName)
	return nil
}

// writeSnapshotLocked stages and atomically installs snapshot.pxs.
// Materialized entries re-encode from their instance; entries still
// lazy from the previous snapshot splice their raw record bytes through
// without decoding, so compacting a cold store stays I/O-bound.
func (s *Store) writeSnapshotLocked() error {
	c := s.cat.Load()
	var buf []byte
	for _, n := range c.sortedNames() {
		var err error
		if buf, err = s.snapshotAppendLocked(buf, n, c.m[n]); err != nil {
			return err
		}
	}
	if err := vfs.PublishFile(s.fs, s.dir, snapshotName, buf); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	return nil
}

// Close stops background maintenance, commits every in-flight write,
// flushes the WAL, and closes it. The store is unusable afterwards.
// Close is idempotent and safe for concurrent use; on a degraded store
// the final flush is skipped (the WAL tail is already suspect — recovery
// cleans it up on the next open) and only the close error, if any, is
// reported. Closing a memory store does nothing.
func (s *Store) Close() error {
	if !s.Durable() {
		return nil
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	s.mu.Unlock()
	// New submissions are now rejected; wait for accepted ones to get
	// their commit outcome (the committer is still running), then stop
	// the committer and the maintenance loop.
	s.submitWG.Wait()
	close(s.stop)
	<-s.commitDone
	<-s.done

	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	// Wake any Compact parked behind an online backup so it can observe
	// the close and bail out.
	s.backupsDone.Broadcast()
	var err error
	if !s.degraded {
		err = s.wal.Sync()
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}

// background runs interval fsyncs, periodic snapshots, threshold
// compactions, segment archiving, and the at-rest scrubber until Close.
func (s *Store) background() {
	defer close(s.done)
	var fsyncC, snapC, archC, scrubC <-chan time.Time
	if s.opts.Fsync == FsyncInterval {
		t := time.NewTicker(s.opts.FsyncEvery)
		defer t.Stop()
		fsyncC = t.C
	}
	if s.opts.SnapshotInterval > 0 {
		t := time.NewTicker(s.opts.SnapshotInterval)
		defer t.Stop()
		snapC = t.C
	}
	if s.opts.ArchiveDir != "" {
		// The retry ticker picks up segments whose archive copy failed
		// (the kick channel only fires on rotation).
		t := time.NewTicker(archiveRetryEvery)
		defer t.Stop()
		archC = t.C
	}
	if s.opts.ScrubInterval > 0 {
		t := time.NewTicker(s.opts.ScrubInterval)
		defer t.Stop()
		scrubC = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-fsyncC:
			s.retrying("interval wal fsync", s.Sync)
		case <-snapC:
			s.retrying("periodic snapshot", s.compactIfDirty)
		case <-s.kick:
			s.retrying("threshold compaction", s.compactIfDirty)
		case <-s.archKick:
			s.archivePending()
		case <-archC:
			s.archivePending()
		case <-scrubC:
			s.scrubStep()
		}
	}
}

// compactIfDirty compacts unless the WAL is already empty (or the store
// is closing or degraded). An in-progress online backup defers the
// compaction instead of waiting for it: Compact would park this — the
// single background goroutine — in backupsDone.Wait for the backup's
// whole duration, stalling interval fsyncs, archiving, and scrub ticks
// with it. Backup re-kicks the compaction when it finishes.
func (s *Store) compactIfDirty() error {
	s.mu.RLock()
	skip := s.walTotal == 0 || s.closed || s.closing || s.degraded || s.backups > 0
	s.mu.RUnlock()
	if skip {
		return nil
	}
	return s.Compact()
}
