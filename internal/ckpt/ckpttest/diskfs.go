package ckpttest

import (
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"sync"

	"tme4a/internal/ckpt"
)

// DiskFS is a ckpt.FS that models power loss over the live view a
// ckpt.MemFS holds: a file's content becomes durable only at its Sync,
// the name→file bindings of the whole namespace at a SyncDir of any
// directory, and a directory at MkdirAll. Crash leaves exactly the state
// a real disk would present after the machine dies.
type DiskFS struct {
	mu      sync.Mutex
	live    *ckpt.MemFS
	names   map[string]*diskFile // live name → file
	durable map[string]*diskFile // the names as of the last SyncDir
	dirs    []string
}

// diskFile is a file: its live handle, its content written and synced.
type diskFile struct {
	ckpt.File
	fs              *DiskFS
	written, synced []byte
}

// NewDiskFS returns an empty DiskFS.
func NewDiskFS() *DiskFS {
	return &DiskFS{live: ckpt.NewMemFS(), names: map[string]*diskFile{}, durable: map[string]*diskFile{}}
}

// Crash simulates power loss: a MemFS holding only the durable view
// replaces the live one, and files opened before write nowhere visible.
// A MemFS fails none of the calls that build that view.
func (d *DiskFS) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.live = ckpt.NewMemFS()
	for _, dir := range d.dirs {
		d.live.MkdirAll(dir)
	}
	for name, f := range d.durable {
		d.durable[name] = &diskFile{synced: f.synced}
		live, _ := d.live.Create(name)
		live.Write(f.synced)
	}
	d.names = maps.Clone(d.durable)
}

// DumpDurable describes the crash-surviving state, each durable file's
// name and size, for test failure messages.
func (d *DiskFS) DumpDurable() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	sizes := make(map[string]int, len(d.durable))
	for name, f := range d.durable {
		sizes[name] = len(f.synced)
	}
	return fmt.Sprint(sizes) // fmt prints a map in key order
}

func (d *DiskFS) MkdirAll(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dirs = append(d.dirs, dir)
	return d.live.MkdirAll(dir)
}

func (d *DiskFS) Create(name string) (ckpt.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	live, err := d.live.Create(name)
	if err != nil {
		return nil, err
	}
	f := &diskFile{File: live, fs: d}
	d.names[filepath.Clean(name)] = f
	return f, nil
}

func (d *DiskFS) Rename(oldname, newname string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.live.Rename(oldname, newname)
	if err == nil {
		d.names[filepath.Clean(newname)] = d.names[filepath.Clean(oldname)]
		delete(d.names, filepath.Clean(oldname))
	}
	return err
}

func (d *DiskFS) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.names, filepath.Clean(name))
	return d.live.Remove(name)
}

// SyncDir makes the name bindings durable, not file contents.
func (d *DiskFS) SyncDir(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.live.SyncDir(dir)
	if err == nil {
		d.durable = maps.Clone(d.names)
	}
	return err
}

func (d *DiskFS) ReadFile(name string) ([]byte, error) { return d.view().ReadFile(name) }

func (d *DiskFS) ReadDir(dir string) ([]string, error) { return d.view().ReadDir(dir) }

func (d *DiskFS) view() *ckpt.MemFS {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.live
}

// Write needs no lock: only this handle's own Write and Sync touch written.
func (f *diskFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.written = append(f.written, p[:n]...)
	return n, err
}

// Sync makes the content written so far durable.
func (f *diskFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	err := f.File.Sync()
	if err == nil {
		f.synced = slices.Clone(f.written)
	}
	return err
}
