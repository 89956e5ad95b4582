// Package ckpttest holds FaultFS, a ckpt.FS that fails scripted
// operations — torn writes, short writes, fsync errors and a crash at any
// syscall — for the crash tests of ckpt and of the packages that
// checkpoint through it.
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
	// models durability (MemFS), its volatile state is discarded.
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

// crasher is implemented by inner filesystems that can model power loss.
type crasher interface{ Crash() }

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

// check advances the fault script for one (op, name) event and returns
// the firing mode, if any. A returned error means the op must not reach
// the inner ckpt.FS at all.
func (f *FaultFS) check(op Op, name string) (Mode, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, false, ErrCrashed
	}
	for i := range f.rules {
		r := &f.rules[i]
		if f.fired[i] {
			continue
		}
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Match != "" && !strings.Contains(name, r.Match) {
			continue
		}
		f.hits[i]++
		nth := r.Nth
		if nth <= 0 {
			nth = 1
		}
		if f.hits[i] != nth {
			continue
		}
		f.fired[i] = true
		if r.Mode == ModeCrash {
			f.crashLocked()
			return ModeCrash, true, ErrCrashed
		}
		return r.Mode, true, nil
	}
	return 0, false, nil
}

func (f *FaultFS) crashLocked() {
	f.crashed = true
	if c, ok := f.inner.(crasher); ok {
		c.Crash()
	}
}

// crash is called by faultFile after a torn write completed its partial
// durable flush.
func (f *FaultFS) crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashLocked()
}

func (f *FaultFS) MkdirAll(dir string) error {
	if _, fired, err := f.check(OpMkdir, dir); err != nil {
		return err
	} else if fired {
		return ErrInjected
	}
	return f.inner.MkdirAll(dir)
}

func (f *FaultFS) Create(name string) (ckpt.File, error) {
	if _, fired, err := f.check(OpCreate, name); err != nil {
		return nil, err
	} else if fired {
		return nil, ErrInjected
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: inner}, nil
}

func (f *FaultFS) Rename(oldname, newname string) error {
	if _, fired, err := f.check(OpRename, oldname); err != nil {
		return err
	} else if fired {
		return ErrInjected
	}
	return f.inner.Rename(oldname, newname)
}

func (f *FaultFS) Remove(name string) error {
	if _, fired, err := f.check(OpRemove, name); err != nil {
		return err
	} else if fired {
		return ErrInjected
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if _, fired, err := f.check(OpReadFile, name); err != nil {
		return nil, err
	} else if fired {
		return nil, ErrInjected
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if _, fired, err := f.check(OpReadDir, dir); err != nil {
		return nil, err
	} else if fired {
		return nil, ErrInjected
	}
	return f.inner.ReadDir(dir)
}

func (f *FaultFS) SyncDir(dir string) error {
	if _, fired, err := f.check(OpSyncDir, dir); err != nil {
		return err
	} else if fired {
		return ErrInjected
	}
	return f.inner.SyncDir(dir)
}

type faultFile struct {
	fs    *FaultFS
	name  string
	inner ckpt.File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	mode, fired, err := ff.fs.check(OpWrite, ff.name)
	if err != nil {
		return 0, err
	}
	if !fired {
		return ff.inner.Write(p)
	}
	switch mode {
	case ModeTorn:
		// Half the buffer reaches the file and is forced durable — the
		// page that made it to the platter — then the machine dies.
		n, _ := ff.inner.Write(p[:len(p)/2]) //tmevet:ignore errdrop -- deliberate torn-write simulation; the injected ErrCrashed is the result
		ff.inner.Sync()                      //tmevet:ignore errdrop -- best effort mid-crash; the machine dies next
		ff.fs.crash()
		return n, ErrCrashed
	case ModeShort:
		n, _ := ff.inner.Write(p[:len(p)/2]) //tmevet:ignore errdrop -- deliberate short-write simulation; ErrInjected is the result
		return n, ErrInjected
	default: // ModeErr
		return 0, ErrInjected
	}
}

func (ff *faultFile) Sync() error {
	if _, fired, err := ff.fs.check(OpSync, ff.name); err != nil {
		return err
	} else if fired {
		return ErrInjected
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error {
	if _, fired, err := ff.fs.check(OpClose, ff.name); err != nil {
		return err
	} else if fired {
		return ErrInjected
	}
	return ff.inner.Close()
}
