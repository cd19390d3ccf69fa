package store

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/vfs"
)

// MVCC read path. The catalog of live instances is an immutable value
// published behind an atomic pointer: every group commit (and follower
// apply, and recovery) builds a copy-on-write successor under s.mu and
// publishes it in one atomic store. Readers — Get, Names, All, Len, and
// the serving layer above — load the current catalog with a single
// pointer read and never take a lock; a reader holds one consistent
// epoch for as long as it keeps the pointer, no matter how many commits
// land meanwhile.
//
// Entries are shared between consecutive catalogs: a commit copies the
// map (pointer-sized values) but reuses every untouched entry, so the
// publish cost per group commit is O(catalog) pointer copies, amortized
// across the batch. Each entry carries a per-name version that is
// monotone for the life of the store — delete and re-put keep counting
// up — which is what the consistency stress test asserts on.
//
// Entries recovered from the snapshot start lazy: the entry holds the
// raw put-record bytes (usually a sub-slice of the mmap'd snapshot) and
// decodes them on first touch, through a store-wide string interner so
// repeated labels across instances share one heap allocation. The
// materialized instance never references the mapping — decode copies
// every string — so the mapping's lifetime only has to cover the raw
// bytes, which each entry pins via its src field until it materializes
// (vfs.Mapping unmaps through a finalizer once unreferenced).

// catalog is one published, immutable version of the name → entry map.
// The struct and the map are never mutated after publication; names is
// a lazily computed (and cached) sorted key list.
type catalog struct {
	// epoch is the publication sequence number: strictly increasing by
	// one per publish for the life of the store process.
	epoch uint64
	m     map[string]*catEntry
	names atomic.Pointer[[]string]
}

// sortedNames returns the catalog's keys in sorted order, computing them
// on first use. The returned slice is shared and must not be mutated.
// Racing first calls may both compute; they produce equal slices, and
// either winning the store is fine.
func (c *catalog) sortedNames() []string {
	if p := c.names.Load(); p != nil {
		return *p
	}
	out := make([]string, 0, len(c.m))
	for n := range c.m {
		out = append(out, n)
	}
	sort.Strings(out)
	c.names.Store(&out)
	return out
}

// catEntry is one name's slot. version and the identity of the entry are
// immutable after publication; inst/raw flip exactly once, at
// materialization, under mu. The steady-state read path is a single
// inst.Load.
type catEntry struct {
	// version is the per-name monotone version this entry was installed
	// at (1 for the first put of a name, +1 per subsequent put,
	// surviving delete + re-put).
	version uint64
	inst    atomic.Pointer[core.ProbInstance]
	failed  atomic.Bool
	// memo is the caller's value for this version (see Memo); nil until
	// first built, then fixed.
	memo atomic.Pointer[any]

	// Lazy state, guarded by mu: raw is the full put-record frame
	// payload (op | name | pxml-bin record), bodyOff the offset of the
	// pxml-bin record within it, src the mapping raw points into (nil
	// for heap-backed raw). Materialization clears raw/src on success;
	// on failure raw is kept so snapshots can still carry the bytes
	// forward verbatim.
	mu      sync.Mutex
	raw     []byte
	bodyOff int
	src     *vfs.Mapping
}

// rawRecord returns the entry's undecoded put-record payload and the
// mapping pinning it, or nil if the entry has materialized. Callers
// must runtime.KeepAlive the returned mapping past their last use of
// the bytes.
func (e *catEntry) rawRecord() ([]byte, *vfs.Mapping) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.raw, e.src
}

// emptyCatalog is what a Store starts from before recovery publishes.
func emptyCatalog() *catalog {
	return &catalog{m: make(map[string]*catEntry)}
}

// entryInstance resolves an entry to its instance, materializing a lazy
// entry on first touch. The fast path — entry already materialized — is
// one atomic load and acquires nothing; the slow path runs once per
// entry under the entry's own mutex (not s.mu), so a cold read never
// blocks writers or readers of other names.
func (s *Store) entryInstance(name string, e *catEntry) (*core.ProbInstance, bool) {
	if pi := e.inst.Load(); pi != nil {
		return pi, true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if pi := e.inst.Load(); pi != nil {
		return pi, true
	}
	if e.failed.Load() || e.raw == nil {
		return nil, false
	}
	pi, err := codec.DecodeBinaryBytesInterned(e.raw[e.bodyOff:], s.interner)
	// e.src (still set) keeps the mapping reachable throughout the
	// decode; the decoded instance owns all of its strings.
	if err != nil {
		// CRC-valid but structurally invalid: a writer bug, not bit rot.
		// The name reads as absent, the bytes stay for the next snapshot,
		// and the error is surfaced via log + counter rather than
		// degrading the whole store.
		e.failed.Store(true)
		s.lazyErrsC.Inc()
		s.opts.Logger.Warn("lazy decode failed", "instance", name, "error", err)
		return nil, false
	}
	e.inst.Store(pi)
	src := e.src
	e.raw, e.src = nil, nil
	runtime.KeepAlive(src)
	return pi, true
}

// mutateCatalogLocked publishes the successor catalog: a fresh map
// seeded from the current one, transformed by fn, at epoch+1. Callers
// hold s.mu (all publishers serialize on it); readers see either the
// old or the new catalog, never a mix.
func (s *Store) mutateCatalogLocked(fn func(m map[string]*catEntry)) {
	cur := s.cat.Load()
	m := make(map[string]*catEntry, len(cur.m)+1)
	for k, v := range cur.m {
		m[k] = v
	}
	fn(m)
	s.cat.Store(&catalog{epoch: cur.epoch + 1, m: m})
}

// newEntryLocked builds a materialized entry for name at its next
// version. Callers hold s.mu (or run single-goroutine during recovery).
func (s *Store) newEntryLocked(name string, pi *core.ProbInstance) *catEntry {
	s.nameVers[name]++
	e := &catEntry{version: s.nameVers[name]}
	e.inst.Store(pi)
	return e
}

// newLazyEntryLocked builds an entry that decodes payload (a full
// put-record frame payload, body starting at bodyOff) on first touch.
// src, when non-nil, is the mapping payload points into.
func (s *Store) newLazyEntryLocked(name string, payload []byte, bodyOff int, src *vfs.Mapping) *catEntry {
	s.nameVers[name]++
	return &catEntry{version: s.nameVers[name], raw: payload, bodyOff: bodyOff, src: src}
}

// Version returns name's current per-name version and whether it is
// live. Versions are monotone per name for the life of the store
// process (delete + re-put keeps counting up). Lock-free.
func (s *Store) Version(name string) (uint64, bool) {
	e, ok := s.cat.Load().m[name]
	if !ok {
		return 0, false
	}
	return e.version, true
}

// Memo returns the value memoized on name's current entry, building it
// from the entry's version and instance on first use. An entry is one
// version of one name: Put, ReplApply and recovery install a fresh entry
// with an empty memo, Delete removes it, and compaction and commits to
// other names carry it over untouched, so a memo lives exactly as long as
// the version it was built from. Racing first builds may both run; one
// wins the compare-and-swap and every caller gets the winner. A nil build
// only peeks. ok is false when name is absent or its lazy decode failed, and,
// with a nil build, when nothing is memoized yet. Lock-free.
func (s *Store) Memo(name string, build func(version uint64, pi *core.ProbInstance) any) (any, bool) {
	e, ok := s.cat.Load().m[name]
	if !ok {
		return nil, false
	}
	if p := e.memo.Load(); p != nil {
		return *p, true
	}
	if build == nil {
		return nil, false
	}
	pi, ok := s.entryInstance(name, e)
	if !ok {
		return nil, false
	}
	v := build(e.version, pi)
	if !e.memo.CompareAndSwap(nil, &v) {
		v = *e.memo.Load()
	}
	return v, true
}

// CatalogEpoch returns the current catalog's publication epoch,
// strictly increasing by one per publish. Lock-free.
func (s *Store) CatalogEpoch() uint64 { return s.cat.Load().epoch }

// snapshotAppendLocked appends name's put record to buf: materialized
// entries re-encode from the instance, still-lazy ones splice their raw
// record bytes straight through — compaction of a cold store copies the
// snapshot without decoding it.
func (s *Store) snapshotAppendLocked(buf []byte, name string, e *catEntry) ([]byte, error) {
	raw, src := e.rawRecord()
	if raw != nil {
		buf = appendFrame(buf, raw)
		runtime.KeepAlive(src)
		return buf, nil
	}
	pi := e.inst.Load()
	if pi == nil {
		return buf, fmt.Errorf("store: snapshot: entry %q has neither instance nor raw bytes", name)
	}
	return appendFrame(buf, appendPutRecord(nil, name, pi)), nil
}
