// Package fsx is the filesystem seam under the persistent cache database.
// Every disk operation internal/core (and the cache server's commit path)
// performs goes through the FS interface, so tests and the chaos harness can
// inject failures — an error return, a short write, or a simulated process
// crash — at any operation without patching the code under test.
//
// OS is the passthrough implementation backed by the os package; its
// WriteFile fsyncs before closing so a completed write is durable, which in
// turn makes the write→sync→rename sequence an enumerable set of crash
// points. NewInject wraps any FS with a rule table that can fail, truncate,
// or "crash" the Nth operation matching an op kind and path pattern.
package fsx

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// Op classifies one filesystem operation for fault matching and metrics.
type Op string

const (
	OpMkdir  Op = "mkdir"
	OpRead   Op = "read"
	OpWrite  Op = "write"
	OpAppend Op = "append" // incremental log append (record-and-replay)
	OpSync   Op = "sync"   // the fsync inside WriteFile/AppendFile, after the data landed
	OpRename Op = "rename"
	OpRemove Op = "remove"
	OpStat   Op = "stat"
	OpGlob   Op = "glob"
	OpLock   Op = "lock" // exclusive-create of the advisory lock file
)

// FS is the set of filesystem operations the cache database performs.
// WriteFile must be durable on success (data written and synced); callers
// get atomicity by writing a temp file and Renaming it into place.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	ReadFile(path string) ([]byte, error)
	// ReadFileRange reads up to n bytes of path starting at off; a range
	// that runs past the end of the file comes back short, without error.
	// It is how a reader takes a file's header without paying for its body.
	ReadFileRange(path string, off int64, n int) ([]byte, error)
	WriteFile(path string, data []byte, perm fs.FileMode) error
	// AppendFile appends data to path (creating it when absent) and syncs
	// before returning — the incremental-logging primitive the replay
	// recorder writes through. On success the appended bytes are durable;
	// a crash mid-append leaves a prefix of them, which is why record logs
	// are length-prefixed and checksummed per record.
	AppendFile(path string, data []byte, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(path string) error
	Stat(path string) (fs.FileInfo, error)
	Glob(pattern string) ([]string, error)
	// CreateExcl creates path with O_CREATE|O_EXCL semantics — the
	// advisory-lock acquisition primitive. It must fail with fs.ErrExist
	// when the file is already present.
	CreateExcl(path string, perm fs.FileMode) error
}

// OS is the passthrough FS over the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) Stat(path string) (fs.FileInfo, error)        { return os.Stat(path) }
func (osFS) Glob(pattern string) ([]string, error)        { return filepath.Glob(pattern) }

func (osFS) ReadFileRange(path string, off int64, n int) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// The caller's n may come from a length field in the file itself:
	// never allocate more than the file can supply.
	if rest := fi.Size() - off; rest < int64(n) {
		n = int(max(rest, 0))
	}
	buf := make([]byte, n)
	got, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:got], nil
}

// WriteFile writes data and fsyncs before closing: on a clean return the
// bytes are durable, so the only crash-vulnerable window left is the rename
// that follows in the atomic-replace idiom.
func (osFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// AppendFile appends and fsyncs: like WriteFile, a clean return means the
// bytes are durable; a crash leaves at most a prefix of the appended data.
func (osFS) AppendFile(path string, data []byte, perm fs.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (osFS) CreateExcl(path string, perm fs.FileMode) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, perm)
	if err != nil {
		return err
	}
	return f.Close()
}
