package ckpt

import (
	"io"
	"os"
	"path/filepath"
)

// File is the writable handle surface the checkpoint writer needs: byte
// writes, durability (fsync) and close.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the seam over every file operation the checkpoint store performs.
// The store never touches the os package directly, so a fault-injecting
// implementation (ckpttest.FaultFS) can fail, shorten or tear any
// individual syscall and a durability-modeling one (MemFS) can simulate
// power loss — making crash recovery testable instead of hoped-for.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// ReadDir returns the sorted base names of dir's entries.
	ReadDir(dir string) ([]string, error)
	// SyncDir fsyncs the directory itself, making renames durable.
	SyncDir(dir string) error
}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil // os.ReadDir sorts by name
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
