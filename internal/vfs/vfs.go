// Package vfs abstracts the handful of filesystem operations the storage
// engine performs, so failure paths can be exercised deterministically.
// OS is the production implementation (a thin passthrough to package os);
// FaultFS wraps any FS and injects failures — nth-operation errors, short
// (torn) writes, fsync errors, rename failures, latency — letting
// crash-recovery and degraded-mode behavior be tested without killing
// processes or filling disks.
package vfs

import (
	"io"
	"os"
	"path/filepath"
)

// File is the writable-file surface the store needs from an open WAL or
// snapshot temp file.
type File interface {
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage.
	Sync() error
	// Truncate resizes the file.
	Truncate(size int64) error
	// Name returns the path the file was opened with.
	Name() string
	// Size returns the current file length.
	Size() (int64, error)
}

// FS is the filesystem surface of the storage engine. Implementations
// must be safe for concurrent use.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// CreateTemp creates a new temp file in dir (pattern as in
	// os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile returns the contents of name.
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data to name, creating or truncating it.
	WriteFile(name string, data []byte) error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Link creates newname as a hard link to oldname. Implementations
	// backed by filesystems without hard links return an error; callers
	// that only need the bytes duplicated should fall back to CopyFile.
	Link(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate resizes the named file.
	Truncate(name string, size int64) error
	// Sync fsyncs the named file (opened read-write just for the flush).
	Sync(name string) error
	// SyncDir fsyncs a directory entry so renames survive power loss.
	SyncDir(dir string) error
	// Glob returns the names matching pattern (filepath.Glob syntax).
	Glob(pattern string) ([]string, error)
	// ReadDir lists dir.
	ReadDir(dir string) ([]os.DirEntry, error)
}

// OS is the production FS: a direct passthrough to package os.
var OS FS = osFS{}

type osFS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) WriteFile(name string, data []byte) error {
	return os.WriteFile(name, data, 0o644)
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Link(oldname, newname string) error { return os.Link(oldname, newname) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) Sync(name string) error {
	f, err := os.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

// CopyFile duplicates src to dst through fsys and fsyncs the copy, so
// backup and archive copies are durable before anyone records their
// existence. The new entry is durable only once the caller fsyncs dst's
// directory. Every step goes through fsys, which lets a FaultFS fail or
// tear the copy deterministically.
func CopyFile(fsys FS, src, dst string) error {
	data, err := fsys.ReadFile(src)
	if err != nil {
		return err
	}
	if err := fsys.WriteFile(dst, data); err != nil {
		return err
	}
	return fsys.Sync(dst)
}

// PublishFile durably replaces dir/name with data: it writes a temp file
// <name>.tmp-* in dir, fsyncs and closes it, renames it over name, and
// fsyncs dir, so a crash leaves the old file or the new one, never a torn
// mix, and a nil return means the new entry survives power loss (fsyncing
// a file does not make its directory entry durable). The temp file is
// removed on any failure before the rename.
func PublishFile(fsys FS, dir, name string, data []byte) error {
	f, err := fsys.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}

// MkdirAllSynced is MkdirAll followed by an fsync of dir's parent, so a
// directory that did not exist survives power loss. Only dir's own entry
// is synced: missing ancestors are created but not made durable.
func MkdirAllSynced(fsys FS, dir string) error {
	if err := fsys.MkdirAll(dir); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(dir))
}
