package ckpttest_test

import (
	"errors"
	"reflect"
	"testing"

	"tme4a/internal/ckpt"
	"tme4a/internal/ckpt/ckpttest"
)

// TestDiskFSModel pins the power-loss model: a file's content is durable
// only at its Sync, a name only at a SyncDir, a torn write leaves its
// synced half, and Crash reverts the live view to exactly that state.
func TestDiskFSModel(t *testing.T) {
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	d := ckpttest.NewDiskFS()
	ffs := ckpttest.NewFaultFS(d, ckpttest.Rule{Op: ckpttest.OpWrite, Match: "torn", Mode: ckpttest.ModeTorn})
	write := func(fs ckpt.FS, name, data string, sync bool) ckpt.File {
		t.Helper()
		f, err := fs.Create(name)
		check(err)
		_, err = f.Write([]byte(data))
		check(err)
		if sync {
			check(f.Sync())
		}
		return f
	}
	read := func(name string) string {
		t.Helper()
		data, err := d.ReadFile(name)
		check(err)
		return string(data)
	}
	listing := func() []string {
		t.Helper()
		names, err := d.ReadDir("d")
		check(err)
		return names
	}

	check(d.MkdirAll("d"))
	check(d.MkdirAll("d/sub"))
	write(d, "d/a", "alpha", true)             // synced and named: survives whole
	unsynced := write(d, "d/b", "beta", false) // named, never synced: survives empty
	write(d, "d/gone", "x", true)              // named, then removed after the SyncDir
	check(d.SyncDir("d"))
	write(d, "d/c", "gamma", true) // synced, never named: lost
	check(d.Rename("d/a", "d/r"))  // the durable name stays d/a
	check(d.Remove("d/gone"))
	if got, want := listing(), []string{"b", "c", "r", "sub"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("live listing %v, want %v", got, want)
	}
	if got := read("d/b"); got != "beta" {
		t.Fatalf("live d/b = %q, want the unsynced write", got)
	}

	d.Crash()
	if got, want := listing(), []string{"a", "b", "gone", "sub"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("listing after crash %v, want %v", got, want)
	}
	if a, b, gone := read("d/a"), read("d/b"), read("d/gone"); a != "alpha" || b != "" || gone != "x" {
		t.Fatalf("after crash a=%q b=%q gone=%q, want the synced contents", a, b, gone)
	}
	if got, want := d.DumpDurable(), "map[d/a:5 d/b:0 d/gone:1]"; got != want {
		t.Fatalf("DumpDurable = %q, want %q", got, want)
	}
	// A handle from before the crash writes nowhere a reader or the
	// next crash can see.
	_, err := unsynced.Write([]byte("late"))
	check(err)
	check(unsynced.Sync())
	if got := read("d/b"); got != "" {
		t.Fatalf("a pre-crash handle changed d/b to %q", got)
	}

	// A torn write through FaultFS: half the buffer is synced, the
	// machine dies, and the file survives with exactly that half.
	f, err := ffs.Create("d/torn")
	check(err)
	check(ffs.SyncDir("d"))
	if _, err := f.Write([]byte("01234567")); !errors.Is(err, ckpttest.ErrCrashed) {
		t.Fatalf("torn write returned %v, want ErrCrashed", err)
	}
	if err := ffs.SyncDir("d"); !errors.Is(err, ckpttest.ErrCrashed) {
		t.Fatalf("op after the crash returned %v, want ErrCrashed", err)
	}
	if got := read("d/torn"); got != "0123" {
		t.Fatalf("torn file holds %q, want its durable half", got)
	}
	if got := read("d/b"); got != "" {
		t.Fatalf("second crash changed d/b to %q", got)
	}
}
