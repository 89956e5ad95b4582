package ckpt

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// MemFS is a plain in-memory FS: one byte slice per live file, visible
// to readers as soon as it is written. Sync and SyncDir check their
// target and persist nothing, so a removed or renamed-over file is
// released at once. The power-loss model the crash tests need is
// ckpttest.DiskFS, which wraps a MemFS.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*[]byte // name → content
	dirs  map[string]bool
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		files: make(map[string]*[]byte),
		dirs:  make(map[string]bool),
	}
}

// MkdirAll registers dir and every ancestor, as os.MkdirAll makes them.
func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := filepath.Clean(dir); !m.dirs[d]; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data := new([]byte)
	m.files[filepath.Clean(name)] = data
	return &memFile{fs: m, data: data}, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	data, ok := m.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	m.files[newname] = data
	delete(m.files, oldname)
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	data, ok := m.files[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), *data...), nil
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
	// by a deeper file path.
	seen := make(map[string]bool)
	prefix := dir + string(filepath.Separator)
	for name := range m.files {
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

// SyncDir fails for a directory MkdirAll never made, like a real dir
// fsync on a missing path, and otherwise does nothing.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Clean(dir)] {
		return &os.PathError{Op: "sync", Path: dir, Err: os.ErrNotExist}
	}
	return nil
}

type memFile struct {
	fs     *MemFS
	data   *[]byte
	closed bool
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	*f.data = append(*f.data, p...)
	return len(p), nil
}

// Sync fails on a closed file and otherwise does nothing.
func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.closed = true
	return nil
}
