package fsx

import (
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"

	"persistcc/internal/metrics"
)

// ErrInjected is the default error an armed rule returns.
var ErrInjected = errors.New("fsx: injected fault")

// ErrCrashed is returned by every operation after a crash rule fired: the
// "process" is dead, and the test reopens the database with a fresh FS to
// model the post-crash world.
var ErrCrashed = errors.New("fsx: simulated crash")

// Record is one observed operation, in call order — the enumeration the
// chaos harness iterates to place a crash at every point of a sequence.
type Record struct {
	Op   Op
	Path string
}

func (r Record) String() string { return string(r.Op) + " " + r.Path }

// Rule arms one fault: the Nth operation (1-based) whose kind is Op and
// whose path contains Path (empty matches every path) misbehaves.
type Rule struct {
	Op   Op
	Path string
	N    int

	// Err is returned by the faulted operation (ErrInjected when nil).
	Err error
	// Frac, for OpWrite faults, is the fraction of the data written before
	// the failure — a short write/ENOSPC torn file. 0 writes nothing.
	Frac float64
	// Crash marks the fault as a process death: the fault fires (leaving
	// any partial write behind) and every subsequent operation returns
	// ErrCrashed.
	Crash bool

	remaining int
}

// InjectFS wraps an FS with fault rules and an operation log.
type InjectFS struct {
	base FS

	mu      sync.Mutex
	rules   []*Rule
	crashed bool
	log     []Record
	record  bool
	count   uint64

	faults *metrics.CounterVec // op; nil until WithMetrics
}

// NewInject wraps base (OS when nil) with an empty rule table.
func NewInject(base FS) *InjectFS {
	if base == nil {
		base = OS
	}
	return &InjectFS{base: base}
}

// WithMetrics exports injected-fault counts as pcc_fsx_injected_faults_total
// in reg, labeled by op.
func (f *InjectFS) WithMetrics(reg *metrics.Registry) *InjectFS {
	f.faults = reg.CounterVec("pcc_fsx_injected_faults_total", "filesystem faults injected by the chaos layer", "op")
	return f
}

// AddRule arms one fault rule.
func (f *InjectFS) AddRule(r Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if r.N < 1 {
		r.N = 1
	}
	r.remaining = r.N
	f.rules = append(f.rules, &r)
}

// FailAt arms an error return on the Nth matching operation.
func (f *InjectFS) FailAt(op Op, path string, n int, err error) {
	f.AddRule(Rule{Op: op, Path: path, N: n, Err: err})
}

// CrashAt arms a simulated process death at the Nth matching operation.
// A crashed write leaves half the data behind (a torn file); every later
// operation fails with ErrCrashed.
func (f *InjectFS) CrashAt(op Op, path string, n int) {
	f.AddRule(Rule{Op: op, Path: path, N: n, Frac: 0.5, Crash: true})
}

// CrashAtIndex arms a crash at the k-th (1-based) operation of a recorded
// sequence, regardless of kind — the chaos harness's "crash at every point"
// driver.
func (f *InjectFS) CrashAtIndex(k int) {
	f.AddRule(Rule{N: k, Frac: 0.5, Crash: true})
}

// TruncateAt arms a short write: the Nth matching write stores only frac of
// its data, then returns err (ErrInjected when nil) — the ENOSPC shape.
func (f *InjectFS) TruncateAt(op Op, path string, n int, frac float64, err error) {
	f.AddRule(Rule{Op: op, Path: path, N: n, Err: err, Frac: frac})
}

// StartRecording clears and enables the operation log.
func (f *InjectFS) StartRecording() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log, f.record = nil, true
}

// Ops returns the recorded operations in call order.
func (f *InjectFS) Ops() []Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Record(nil), f.log...)
}

// Crashed reports whether a crash rule has fired.
func (f *InjectFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Injected returns how many faults have fired.
func (f *InjectFS) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count
}

// check logs the operation and decides its fate: nil rule means proceed.
// The returned error is what the operation must report; for OpWrite the
// rule's Frac additionally selects how much data lands first.
func (f *InjectFS) check(op Op, path string) (*Rule, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	if f.record {
		f.log = append(f.log, Record{Op: op, Path: path})
	}
	for _, r := range f.rules {
		if r.remaining == 0 {
			continue // already fired
		}
		if r.Op != "" && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.remaining--
		if r.remaining > 0 {
			continue // not the Nth match yet
		}
		f.count++
		if f.faults != nil {
			f.faults.With(string(op)).Inc()
		}
		if r.Crash {
			f.crashed = true
			return r, ErrCrashed
		}
		if r.Err != nil {
			return r, r.Err
		}
		return r, fmt.Errorf("%w: %s %s", ErrInjected, op, path)
	}
	return nil, nil
}

func (f *InjectFS) MkdirAll(path string, perm fs.FileMode) error {
	if _, err := f.check(OpMkdir, path); err != nil {
		return err
	}
	return f.base.MkdirAll(path, perm)
}

func (f *InjectFS) ReadFile(path string) ([]byte, error) {
	if _, err := f.check(OpRead, path); err != nil {
		return nil, err
	}
	return f.base.ReadFile(path)
}

func (f *InjectFS) ReadFileRange(path string, off int64, n int) ([]byte, error) {
	if _, err := f.check(OpRead, path); err != nil {
		return nil, err
	}
	return f.base.ReadFileRange(path, off, n)
}

// WriteFile models two crash points: the write itself (a faulted write
// leaves Frac of the data behind — a torn file) and the fsync that follows
// (data fully written, but the fault fires before the op reports success).
func (f *InjectFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	if r, err := f.check(OpWrite, path); err != nil {
		if r != nil && r.Frac > 0 {
			n := int(float64(len(data)) * r.Frac)
			f.base.WriteFile(path, data[:n], perm) // best-effort torn file
		}
		return err
	}
	if err := f.base.WriteFile(path, data, perm); err != nil {
		return err
	}
	if _, err := f.check(OpSync, path); err != nil {
		return err
	}
	return nil
}

// AppendFile mirrors WriteFile's two crash points: the append itself (a
// faulted append lands Frac of the data — a torn tail) and the fsync after
// it (data appended, fault before the op reports success).
func (f *InjectFS) AppendFile(path string, data []byte, perm fs.FileMode) error {
	if r, err := f.check(OpAppend, path); err != nil {
		if r != nil && r.Frac > 0 {
			n := int(float64(len(data)) * r.Frac)
			f.base.AppendFile(path, data[:n], perm) // best-effort torn tail
		}
		return err
	}
	if err := f.base.AppendFile(path, data, perm); err != nil {
		return err
	}
	if _, err := f.check(OpSync, path); err != nil {
		return err
	}
	return nil
}

func (f *InjectFS) Rename(oldpath, newpath string) error {
	if _, err := f.check(OpRename, newpath); err != nil {
		return err
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *InjectFS) Remove(path string) error {
	if _, err := f.check(OpRemove, path); err != nil {
		return err
	}
	return f.base.Remove(path)
}

func (f *InjectFS) Stat(path string) (fs.FileInfo, error) {
	if _, err := f.check(OpStat, path); err != nil {
		return nil, err
	}
	return f.base.Stat(path)
}

func (f *InjectFS) Glob(pattern string) ([]string, error) {
	if _, err := f.check(OpGlob, pattern); err != nil {
		return nil, err
	}
	return f.base.Glob(pattern)
}

func (f *InjectFS) CreateExcl(path string, perm fs.FileMode) error {
	if _, err := f.check(OpLock, path); err != nil {
		return err
	}
	return f.base.CreateExcl(path, perm)
}

var _ FS = (*InjectFS)(nil)
