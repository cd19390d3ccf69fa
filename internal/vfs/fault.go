package vfs

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ErrInjected is the default error a FaultFS rule returns. Tests can
// match it with errors.Is even when the store wraps it.
var ErrInjected = errors.New("vfs: injected fault")

// ErrDiskFull is the error DiskFull rules inject. It wraps both
// ErrInjected and syscall.ENOSPC, so callers can match either the
// generic "a fault fired" sentinel or the specific errno real kernels
// return when the volume fills.
var ErrDiskFull = fmt.Errorf("%w: disk full: %w", ErrInjected, syscall.ENOSPC)

// Op names one filesystem operation class for fault matching.
type Op string

const (
	OpMkdir      Op = "mkdir"
	OpOpenAppend Op = "open-append"
	OpCreate     Op = "create" // CreateTemp
	OpRead       Op = "read"   // ReadFile
	OpWrite      Op = "write"  // File.Write and WriteFile
	OpSync       Op = "sync"   // File.Sync and FS.Sync
	OpSyncDir    Op = "sync-dir"
	OpRename     Op = "rename"
	OpLink       Op = "link"
	OpRemove     Op = "remove"
	OpTruncate   Op = "truncate" // File.Truncate and FS.Truncate
	OpGlob       Op = "glob"
	OpReadDir    Op = "read-dir"
)

// Rule describes one deterministic fault. A rule matches an operation
// when Op equals the operation's class and Path (when non-empty) is a
// substring of the operation's target path. Matches are counted per
// rule; the rule fires on matches number After+1 through After+Times
// (Times == 0 fires forever once active).
type Rule struct {
	// Op is the operation class to intercept.
	Op Op
	// Path, when non-empty, restricts the rule to paths containing it.
	Path string
	// After skips this many matching operations before the rule starts
	// firing (0 = fire from the first match).
	After int
	// Times bounds how many operations the rule fires on; 0 = no bound.
	Times int
	// Err is the injected error; nil defaults to ErrInjected unless the
	// rule is latency-only (Delay > 0, ShortWrite == 0).
	Err error
	// ShortWrite, for OpWrite, passes only the first ShortWrite bytes of
	// the buffer to the underlying writer and then fails — a torn write.
	ShortWrite int
	// Delay is injected latency before the operation proceeds. A rule
	// with only Delay set slows the operation without failing it.
	Delay time.Duration
}

// latencyOnly reports whether the rule slows but does not fail.
func (r Rule) latencyOnly() bool {
	return r.Err == nil && r.ShortWrite == 0 && r.Delay > 0
}

type ruleState struct {
	Rule
	matched int // matching operations seen so far
	fired   int // operations the rule has fired on
}

// FaultFS wraps a base FS and injects failures according to a mutable
// rule set. Rules can be added at any time, including while a store is
// live — that is the point: flip a healthy store into a failing world
// mid-test. All methods are safe for concurrent use.
type FaultFS struct {
	base FS

	mu       sync.Mutex
	rules    []*ruleState
	injected map[Op]int
}

// NewFaultFS wraps base (nil means OS) with an empty rule set.
func NewFaultFS(base FS) *FaultFS {
	if base == nil {
		base = OS
	}
	return &FaultFS{base: base, injected: make(map[Op]int)}
}

// Inject adds a rule. Rules are evaluated in insertion order; the first
// firing rule wins.
func (f *FaultFS) Inject(r Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &ruleState{Rule: r})
}

// FailAll makes every subsequent matching operation fail with ErrInjected.
func (f *FaultFS) FailAll(op Op, path string) {
	f.Inject(Rule{Op: op, Path: path})
}

// FailNth makes the nth (1-based) matching operation fail with
// ErrInjected, counting from now.
func (f *FaultFS) FailNth(op Op, path string, n int) {
	f.Inject(Rule{Op: op, Path: path, After: n - 1, Times: 1})
}

// diskFullOps are the operation classes that allocate blocks and hence
// fail first when a volume fills: data writes, file creation, appends,
// directory creation, and the metadata writes rename/link need for new
// directory entries.
var diskFullOps = []Op{OpWrite, OpCreate, OpOpenAppend, OpMkdir, OpRename, OpLink}

// DiskFull simulates the volume running out of space for paths
// containing path (empty = everywhere): every subsequent operation that
// allocates blocks fails with ErrDiskFull (ENOSPC). Reads, syncs of
// already-written data, removes, and truncates still succeed — matching
// how a full ext4/xfs volume behaves, where freeing space is the only
// mutation that works. skipWrites lets that many OpWrite operations
// succeed first, so a test can land the fault mid-batch.
func (f *FaultFS) DiskFull(path string, skipWrites int) {
	for _, op := range diskFullOps {
		after := 0
		if op == OpWrite {
			after = skipWrites
		}
		f.Inject(Rule{Op: op, Path: path, After: after, Err: ErrDiskFull})
	}
}

// Reset drops all rules and injection counts.
func (f *FaultFS) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
	f.injected = make(map[Op]int)
}

// Injected returns how many operations of class op have had a fault
// injected (latency-only rules count too).
func (f *FaultFS) Injected(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected[op]
}

// outcome is the decision check makes for one operation.
type outcome struct {
	delay time.Duration
	short int // >0: torn write of this many bytes, then err
	err   error
}

// check consults the rules for one operation. It never blocks while
// holding the lock; the caller sleeps any returned delay.
func (f *FaultFS) check(op Op, path string) outcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rs := range f.rules {
		if rs.Op != op {
			continue
		}
		if rs.Path != "" && !strings.Contains(path, rs.Path) {
			continue
		}
		rs.matched++
		if rs.matched <= rs.After {
			continue
		}
		if rs.Times > 0 && rs.fired >= rs.Times {
			continue
		}
		rs.fired++
		f.injected[op]++
		out := outcome{delay: rs.Delay}
		if rs.latencyOnly() {
			return out
		}
		out.err = rs.Err
		if out.err == nil {
			out.err = fmt.Errorf("%w: %s %s", ErrInjected, op, path)
		}
		out.short = rs.ShortWrite
		return out
	}
	return outcome{}
}

// apply runs the rule decision for an operation with no payload: sleeps
// injected latency and returns the injected error, if any.
func (f *FaultFS) apply(op Op, path string) error {
	out := f.check(op, path)
	if out.delay > 0 {
		time.Sleep(out.delay)
	}
	return out.err
}

func (f *FaultFS) MkdirAll(dir string) error {
	if err := f.apply(OpMkdir, dir); err != nil {
		return err
	}
	return f.base.MkdirAll(dir)
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	if err := f.apply(OpOpenAppend, name); err != nil {
		return nil, err
	}
	file, err := f.base.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, File: file, path: name}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err := f.apply(OpCreate, dir); err != nil {
		return nil, err
	}
	file, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, File: file, path: file.Name()}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := f.apply(OpRead, name); err != nil {
		return nil, err
	}
	return f.base.ReadFile(name)
}

func (f *FaultFS) WriteFile(name string, data []byte) error {
	out := f.check(OpWrite, name)
	if out.delay > 0 {
		time.Sleep(out.delay)
	}
	if out.err != nil {
		if out.short > 0 && out.short < len(data) {
			// Torn write: persist a prefix, then report failure.
			_ = f.base.WriteFile(name, data[:out.short])
		}
		return out.err
	}
	return f.base.WriteFile(name, data)
}

func (f *FaultFS) Rename(oldname, newname string) error {
	if err := f.apply(OpRename, newname); err != nil {
		return err
	}
	return f.base.Rename(oldname, newname)
}

func (f *FaultFS) Link(oldname, newname string) error {
	if err := f.apply(OpLink, newname); err != nil {
		return err
	}
	return f.base.Link(oldname, newname)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.apply(OpRemove, name); err != nil {
		return err
	}
	return f.base.Remove(name)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.apply(OpTruncate, name); err != nil {
		return err
	}
	return f.base.Truncate(name, size)
}

func (f *FaultFS) Sync(name string) error {
	if err := f.apply(OpSync, name); err != nil {
		return err
	}
	return f.base.Sync(name)
}

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.apply(OpSyncDir, dir); err != nil {
		return err
	}
	return f.base.SyncDir(dir)
}

func (f *FaultFS) Glob(pattern string) ([]string, error) {
	if err := f.apply(OpGlob, pattern); err != nil {
		return nil, err
	}
	return f.base.Glob(pattern)
}

func (f *FaultFS) ReadDir(dir string) ([]os.DirEntry, error) {
	if err := f.apply(OpReadDir, dir); err != nil {
		return nil, err
	}
	return f.base.ReadDir(dir)
}

// faultFile threads writes, syncs, and truncates on an open file back
// through the rule set.
type faultFile struct {
	fs *FaultFS
	File
	path string
}

func (f *faultFile) Write(p []byte) (int, error) {
	out := f.fs.check(OpWrite, f.path)
	if out.delay > 0 {
		time.Sleep(out.delay)
	}
	if out.err != nil {
		n := 0
		if out.short > 0 && out.short < len(p) {
			// Torn write: the prefix reaches the file, the rest is lost.
			n, _ = f.File.Write(p[:out.short])
		}
		return n, out.err
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.fs.apply(OpSync, f.path); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.apply(OpTruncate, f.path); err != nil {
		return err
	}
	return f.File.Truncate(size)
}
