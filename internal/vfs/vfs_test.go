package vfs

import (
	"errors"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "a", "b")
	if err := OS.MkdirAll(sub); err != nil {
		t.Fatal(err)
	}

	wal := filepath.Join(sub, "wal.log")
	f, err := OS.OpenAppend(wal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, err := f.Size(); err != nil || n != 11 {
		t.Fatalf("Size = %d, %v; want 11, nil", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := OS.ReadFile(wal)
	if err != nil || string(data) != "hello world" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if err := OS.Truncate(wal, 5); err != nil {
		t.Fatal(err)
	}
	if data, _ = OS.ReadFile(wal); string(data) != "hello" {
		t.Fatalf("after truncate: %q", data)
	}
	if err := OS.Sync(wal); err != nil {
		t.Fatal(err)
	}

	tmp, err := OS.CreateTemp(sub, "snap-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(sub, "snapshot.pxs")
	if err := OS.Rename(tmp.Name(), snap); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(sub); err != nil {
		t.Fatal(err)
	}

	if got, err := OS.ReadFile(snap); err != nil || string(got) != "snapshot" {
		t.Fatalf("ReadFile after rename = %q, %v", got, err)
	}

	matches, err := OS.Glob(filepath.Join(sub, "*.pxs"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("Glob = %v, %v", matches, err)
	}
	entries, err := OS.ReadDir(sub)
	if err != nil || len(entries) != 2 {
		t.Fatalf("ReadDir = %v, %v", entries, err)
	}
	if err := OS.WriteFile(filepath.Join(sub, "w.bin"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := OS.Remove(filepath.Join(sub, "w.bin")); err != nil {
		t.Fatal(err)
	}
}

func TestFaultFSFailNth(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	ffs.FailNth(OpWrite, "wal", 2)

	f, err := ffs.OpenAppend(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("one")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := f.Write([]byte("two")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2: want ErrInjected, got %v", err)
	}
	if _, err := f.Write([]byte("three")); err != nil {
		t.Fatalf("write 3: %v", err)
	}
	if got := ffs.Injected(OpWrite); got != 1 {
		t.Fatalf("Injected(write) = %d, want 1", got)
	}
	data, _ := OS.ReadFile(filepath.Join(dir, "wal.log"))
	if string(data) != "onethree" {
		t.Fatalf("file = %q, want %q", data, "onethree")
	}
}

func TestFaultFSShortWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	ffs.Inject(Rule{Op: OpWrite, ShortWrite: 4, Times: 1})

	f, err := ffs.OpenAppend(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := f.Write([]byte("abcdefgh"))
	if !errors.Is(err, ErrInjected) || n != 4 {
		t.Fatalf("Write = %d, %v; want 4, ErrInjected", n, err)
	}
	data, _ := OS.ReadFile(filepath.Join(dir, "wal.log"))
	if string(data) != "abcd" {
		t.Fatalf("torn file = %q, want %q", data, "abcd")
	}
}

func TestFaultFSSyncAndRename(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	ffs.FailAll(OpSync, "")
	boom := errors.New("boom")
	ffs.Inject(Rule{Op: OpRename, Err: boom})

	f, err := ffs.OpenAppend(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Sync: want ErrInjected, got %v", err)
	}
	if err := ffs.Rename(f.Name(), filepath.Join(dir, "x")); !errors.Is(err, boom) {
		t.Fatalf("Rename: want boom, got %v", err)
	}
	// After Reset everything passes through again.
	ffs.Reset()
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync after Reset: %v", err)
	}
	if got := ffs.Injected(OpSync); got != 0 {
		t.Fatalf("Injected(sync) after Reset = %d, want 0", got)
	}
}

func TestFaultFSPathFilterAndAfter(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	// Only removals of paths containing "snapshot" fail, and only the
	// 2nd and 3rd matching ones.
	ffs.Inject(Rule{Op: OpRemove, Path: "snapshot", After: 1, Times: 2})

	mk := func(name string) string {
		p := filepath.Join(dir, name)
		if err := OS.WriteFile(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := ffs.Remove(mk("wal.log")); err != nil {
		t.Fatalf("non-matching remove: %v", err)
	}
	if err := ffs.Remove(mk("snapshot-1")); err != nil {
		t.Fatalf("1st matching remove should pass: %v", err)
	}
	if err := ffs.Remove(mk("snapshot-2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd matching remove: want ErrInjected, got %v", err)
	}
	if err := ffs.Remove(mk("snapshot-3")); !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd matching remove: want ErrInjected, got %v", err)
	}
	if err := ffs.Remove(mk("snapshot-4")); err != nil {
		t.Fatalf("rule exhausted, remove should pass: %v", err)
	}
}

func TestFaultFSLatencyOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	ffs.Inject(Rule{Op: OpWrite, Delay: 20 * time.Millisecond, Times: 1})

	f, err := ffs.OpenAppend(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	if _, err := f.Write([]byte("slow")); err != nil {
		t.Fatalf("latency-only write must succeed: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("write returned after %v, want >= 20ms", d)
	}
	if got := ffs.Injected(OpWrite); got != 1 {
		t.Fatalf("Injected(write) = %d, want 1", got)
	}
}

func TestFaultFSConcurrent(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	ffs.Inject(Rule{Op: OpSync, After: 50})

	f, err := ffs.OpenAppend(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 25; j++ {
				_, _ = f.Write([]byte("x"))
				_ = f.Sync()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if got := ffs.Injected(OpSync); got != 50 {
		t.Fatalf("Injected(sync) = %d, want 50", got)
	}
}

func TestFaultFSDiskFull(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	f, err := ffs.OpenAppend(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("before")); err != nil {
		t.Fatalf("write before disk full: %v", err)
	}

	ffs.DiskFull("", 1) // one more write squeezes in, then the volume is full

	if _, err := f.Write([]byte("last")); err != nil {
		t.Fatalf("skipWrites should let one write through: %v", err)
	}
	_, err = f.Write([]byte("lost"))
	if !errors.Is(err, ErrDiskFull) {
		t.Fatalf("write on full disk = %v, want ErrDiskFull", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("disk-full error should match syscall.ENOSPC, got %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("disk-full error should match ErrInjected, got %v", err)
	}

	// Every allocating op fails...
	if _, err := ffs.CreateTemp(dir, "t-*"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("CreateTemp = %v, want ENOSPC", err)
	}
	if _, err := ffs.OpenAppend(filepath.Join(dir, "other.log")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("OpenAppend = %v, want ENOSPC", err)
	}
	if err := ffs.MkdirAll(filepath.Join(dir, "sub")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("MkdirAll = %v, want ENOSPC", err)
	}
	if err := ffs.Rename(filepath.Join(dir, "wal.log"), filepath.Join(dir, "wal2.log")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Rename = %v, want ENOSPC", err)
	}

	// ...but reads, syncs, and removes still work: freeing space is the
	// only mutation a full volume allows.
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync on full disk: %v", err)
	}
	if data, err := ffs.ReadFile(filepath.Join(dir, "wal.log")); err != nil || string(data) != "beforelast" {
		t.Fatalf("ReadFile = %q, %v; want %q", data, err, "beforelast")
	}
	if err := ffs.Remove(filepath.Join(dir, "wal.log")); err != nil {
		t.Fatalf("Remove on full disk: %v", err)
	}
}

// TestPublishFileFaults fails each step of PublishFile in turn: a failure
// before the rename leaves the old file in place, a failed directory
// fsync reports an error after the new file landed, and no failure
// leaves a temp file behind.
func TestPublishFileFaults(t *testing.T) {
	for _, tc := range []struct {
		op   Op
		want string
	}{
		{OpCreate, "old"}, {OpWrite, "old"}, {OpSync, "old"}, {OpRename, "old"}, {OpSyncDir, "new"}, {"", "new"},
	} {
		dir := t.TempDir()
		if err := OS.WriteFile(filepath.Join(dir, "EPOCH"), []byte("old")); err != nil {
			t.Fatal(err)
		}
		ff := NewFaultFS(nil)
		if tc.op != "" {
			ff.FailAll(tc.op, "")
		}
		err := PublishFile(ff, dir, "EPOCH", []byte("new"))
		if (err != nil) != (tc.op != "") {
			t.Errorf("%s fault: PublishFile = %v", tc.op, err)
		}
		if data, _ := OS.ReadFile(filepath.Join(dir, "EPOCH")); string(data) != tc.want {
			t.Errorf("%s fault: file holds %q, want %q", tc.op, data, tc.want)
		}
		if left, _ := OS.Glob(filepath.Join(dir, "EPOCH.tmp-*")); len(left) != 0 {
			t.Errorf("%s fault: temp files left behind: %v", tc.op, left)
		}
	}
}
