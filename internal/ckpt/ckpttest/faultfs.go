// Package ckpttest holds the filesystems the crash tests of ckpt and of
// the packages that checkpoint through it run on: DiskFS, which models
// power loss, and FaultFS, which fails scripted operations — torn writes,
// short writes, fsync errors and a crash at any syscall.
package ckpttest

import (
	"errors"
	"strings"
	"sync"

	"tme4a/internal/ckpt"
)

// ErrInjected is the error returned by an op that a FaultFS rule failed.
var ErrInjected = errors.New("ckpttest: injected fault")

// ErrCrashed is returned by every op after a FaultFS rule simulated a
// process/machine crash.
var ErrCrashed = errors.New("ckpttest: simulated crash")

// Op names one filesystem operation class for fault matching.
type Op uint8

const (
	OpAny Op = iota // matches every operation
	OpMkdir
	OpCreate
	OpWrite
	OpSync // file fsync
	OpClose
	OpRename
	OpRemove
	OpReadFile
	OpReadDir
	OpSyncDir
)

// Mode is what happens when a rule fires.
type Mode uint8

const (
	// ModeErr fails the operation with ErrInjected; the process keeps
	// running (transient I/O error, e.g. a failed fsync).
	ModeErr Mode = iota
	// ModeCrash aborts before the operation takes effect and kills the
	// "process": every subsequent op returns ErrCrashed. If the inner ckpt.FS
	// models durability (DiskFS), its volatile state is discarded.
	ModeCrash
	// ModeTorn applies to writes: half the buffer reaches the file (and
	// is forced durable, modeling a page that hit the platter), then the
	// process crashes — the canonical torn write.
	ModeTorn
	// ModeShort applies to writes: half the buffer is written and the op
	// reports a short-write error.
	ModeShort
)

// Rule arms one fault: the Nth operation (1-based, default 1) of class Op
// whose file name contains Match (empty matches any) fails with Mode.
type Rule struct {
	Op    Op
	Match string
	Nth   int
	Mode  Mode
}

// FaultFS wraps an FS and fails scripted operations: torn writes, short
// writes, fsync errors and crash-at-any-syscall. Each rule fires at most
// once; unmatched operations pass through to the inner ckpt.FS.
type FaultFS struct {
	inner ckpt.FS

	mu      sync.Mutex
	rules   []Rule
	hits    []int
	fired   []bool
	crashed bool
}

// NewFaultFS wraps inner with the given fault rules.
func NewFaultFS(inner ckpt.FS, rules ...Rule) *FaultFS {
	return &FaultFS{
		inner: inner,
		rules: rules,
		hits:  make([]int, len(rules)),
		fired: make([]bool, len(rules)),
	}
}

// Crashed reports whether a crash rule has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// fault advances the fault script for one (op, name) event. Once the
// process has crashed, or when a ModeCrash rule fires, it returns
// ErrCrashed; when another rule fires, its mode and ErrInjected; and nil
// when the op must reach the inner ckpt.FS.
func (f *FaultFS) fault(op Op, name string) (Mode, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, ErrCrashed
	}
	for i := range f.rules {
		r := &f.rules[i]
		if f.fired[i] || r.Op != OpAny && r.Op != op || !strings.Contains(name, r.Match) {
			continue
		}
		if f.hits[i]++; f.hits[i] != max(r.Nth, 1) {
			continue
		}
		f.fired[i] = true
		if r.Mode == ModeCrash {
			f.crashLocked()
			return ModeCrash, ErrCrashed
		}
		return r.Mode, ErrInjected
	}
	return 0, nil
}

// then runs do unless the fault script fails the (op, name) event.
func (f *FaultFS) then(op Op, name string, do func() error) error {
	if _, err := f.fault(op, name); err != nil {
		return err
	}
	return do()
}

func (f *FaultFS) crashLocked() {
	f.crashed = true
	if d, ok := f.inner.(*DiskFS); ok {
		d.Crash()
	}
}

func (f *FaultFS) MkdirAll(dir string) error {
	return f.then(OpMkdir, dir, func() error { return f.inner.MkdirAll(dir) })
}

func (f *FaultFS) Create(name string) (ckpt.File, error) {
	if _, err := f.fault(OpCreate, name); err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: inner}, nil
}

func (f *FaultFS) Rename(oldname, newname string) error {
	return f.then(OpRename, oldname, func() error { return f.inner.Rename(oldname, newname) })
}

func (f *FaultFS) Remove(name string) error {
	return f.then(OpRemove, name, func() error { return f.inner.Remove(name) })
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if _, err := f.fault(OpReadFile, name); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if _, err := f.fault(OpReadDir, dir); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

func (f *FaultFS) SyncDir(dir string) error {
	return f.then(OpSyncDir, dir, func() error { return f.inner.SyncDir(dir) })
}

type faultFile struct {
	fs    *FaultFS
	name  string
	inner ckpt.File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	mode, err := ff.fs.fault(OpWrite, ff.name)
	switch {
	case err == nil:
		return ff.inner.Write(p)
	case mode == ModeTorn:
		// Half the buffer reaches the file and is forced durable — the
		// page that made it to the platter — then the machine dies.
		n, _ := ff.inner.Write(p[:len(p)/2]) //tmevet:ignore errdrop -- deliberate torn-write simulation; the injected ErrCrashed is the result
		ff.inner.Sync()                      //tmevet:ignore errdrop -- best effort mid-crash; the machine dies next
		ff.fs.mu.Lock()
		defer ff.fs.mu.Unlock()
		ff.fs.crashLocked()
		return n, ErrCrashed
	case mode == ModeShort:
		n, _ := ff.inner.Write(p[:len(p)/2]) //tmevet:ignore errdrop -- deliberate short-write simulation; ErrInjected is the result
		return n, ErrInjected
	}
	return 0, err // ModeErr, ModeCrash or an earlier crash
}

func (ff *faultFile) Sync() error {
	return ff.fs.then(OpSync, ff.name, func() error { return ff.inner.Sync() })
}

func (ff *faultFile) Close() error {
	return ff.fs.then(OpClose, ff.name, func() error { return ff.inner.Close() })
}
