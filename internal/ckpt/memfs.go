package ckpt

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// MemFS is an in-memory FS that models POSIX durability semantics so
// tests can simulate power loss at any point: a file's content becomes
// durable only at Sync, and a name→file binding (create, rename, remove)
// becomes durable only at SyncDir. Crash discards everything volatile,
// leaving exactly the state a real disk would present after the machine
// dies — which is the state the recovery path must handle.
type MemFS struct {
	mu      sync.Mutex
	nextID  int
	inodes  map[int]*memInode
	live    map[string]int // current namespace (what readers see)
	durable map[string]int // crash-surviving namespace (as of last SyncDir)
	dirs    map[string]bool
}

type memInode struct {
	live    []byte // current content, visible to readers immediately
	durable []byte // content as of the last Sync; what a crash preserves
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		inodes:  make(map[int]*memInode),
		live:    make(map[string]int),
		durable: make(map[string]int),
		dirs:    make(map[string]bool),
	}
}

// Crash simulates power loss: every file reverts to its last-synced
// content and the namespace reverts to its last SyncDir state. The
// filesystem stays usable afterwards, now presenting the post-reboot
// view.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.live = make(map[string]int, len(m.durable))
	for name, id := range m.durable {
		m.live[name] = id
	}
	for _, ino := range m.inodes {
		ino.live = append([]byte(nil), ino.durable...)
	}
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[filepath.Clean(dir)] = true
	return nil
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	ino := &memInode{}
	m.nextID++
	id := m.nextID
	m.inodes[id] = ino
	m.live[name] = id
	return &memFile{fs: m, ino: ino}, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	id, ok := m.live[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	m.live[newname] = id
	delete(m.live, oldname)
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.live[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.live, name)
	return nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	id, ok := m.live[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), m.inodes[id].live...), nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, &os.PathError{Op: "open", Path: dir, Err: os.ErrNotExist}
	}
	// Like os.ReadDir, list both child files and child directories. A
	// directory is a child if it was registered via MkdirAll or is implied
	// by a deeper live path.
	seen := make(map[string]bool)
	prefix := dir + string(filepath.Separator)
	for name := range m.live {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			child, _, _ := strings.Cut(rest, string(filepath.Separator))
			seen[child] = true
		}
	}
	for d := range m.dirs {
		if rest, ok := strings.CutPrefix(d, prefix); ok {
			child, _, _ := strings.Cut(rest, string(filepath.Separator))
			seen[child] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir makes the current namespace durable (the directory-entry half
// of the crash-consistency protocol). Like a real dir fsync it persists
// name bindings, not file contents.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Clean(dir)] {
		return &os.PathError{Op: "sync", Path: dir, Err: os.ErrNotExist}
	}
	m.durable = make(map[string]int, len(m.live))
	for name, id := range m.live {
		m.durable[name] = id
	}
	return nil
}

type memFile struct {
	fs     *MemFS
	ino    *memInode
	closed bool
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	f.ino.live = append(f.ino.live, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	f.ino.durable = append([]byte(nil), f.ino.live...)
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.closed = true
	return nil
}
