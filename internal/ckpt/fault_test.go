package ckpt_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"tme4a/internal/ckpt"
	"tme4a/internal/ckpt/ckpttest"
	"tme4a/internal/obs"
)

// seedStore writes valid checkpoints at the given steps into fs/dir;
// the saves must succeed. Save ends with SyncDir, so on a DiskFS the
// seeded state is already durable when this returns.
func seedStore(t *testing.T, fs ckpt.FS, dir string, steps ...int64) {
	t.Helper()
	st, err := ckpt.Open(dir, 10, 42, fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range steps {
		if err := st.Save(ckpt.TestSnap(step, 5, step)); err != nil {
			t.Fatalf("seed save %d: %v", step, err)
		}
	}
}

// corruptFile flips one payload byte of a durable file in place,
// bypassing the store (a bit-rot / partial-overwrite simulation).
func corruptFile(t *testing.T, fs ckpt.FS, path string) {
	t.Helper()
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
}

// TestFaultMatrix drives every recovery branch: for each injected fault
// the interrupted Save must report an error (or the crash must abandon
// the process), and recovery over the durable state must land on the
// newest valid checkpoint — or, where nothing valid exists, on the
// precise error for that situation.
func TestFaultMatrix(t *testing.T) {
	const dir = "ck"
	newest := ckpt.FileName(300) // the save the fault interrupts
	cases := []struct {
		name string
		// rules applied while saving step 300 on top of durable 100, 200
		rules []ckpttest.Rule
		// keep is the saving store's retention (0 means 10: no pruning)
		keep int
		// direct corruption applied after the (possibly failed) save
		corrupt bool
		// wantStep is the step recovery must land on
		wantStep int64
		// wantSaveErr: the interrupted Save must return an error
		wantSaveErr bool
	}{
		{
			name:        "torn write on checkpoint temp",
			rules:       []ckpttest.Rule{{Op: ckpttest.OpWrite, Match: newest, Mode: ckpttest.ModeTorn}},
			wantStep:    200,
			wantSaveErr: true,
		},
		{
			name:        "short write on checkpoint temp",
			rules:       []ckpttest.Rule{{Op: ckpttest.OpWrite, Match: newest, Mode: ckpttest.ModeShort}},
			wantStep:    200,
			wantSaveErr: true,
		},
		{
			name:        "fsync failure on checkpoint temp",
			rules:       []ckpttest.Rule{{Op: ckpttest.OpSync, Match: newest, Mode: ckpttest.ModeErr}},
			wantStep:    200,
			wantSaveErr: true,
		},
		{
			name:        "create failure on checkpoint temp",
			rules:       []ckpttest.Rule{{Op: ckpttest.OpCreate, Match: newest, Mode: ckpttest.ModeErr}},
			wantStep:    200,
			wantSaveErr: true,
		},
		{
			name:        "crash after temp fully written, before rename",
			rules:       []ckpttest.Rule{{Op: ckpttest.OpRename, Match: newest, Mode: ckpttest.ModeCrash}},
			wantStep:    200,
			wantSaveErr: true,
		},
		{
			name:        "crash after rename, before dir fsync",
			rules:       []ckpttest.Rule{{Op: ckpttest.OpSyncDir, Match: dir, Mode: ckpttest.ModeCrash}},
			wantStep:    200,
			wantSaveErr: true,
		},
		{
			name:        "crash after checkpoint durable, during prune",
			rules:       []ckpttest.Rule{{Op: ckpttest.OpRemove, Match: ckpt.FileName(100), Mode: ckpttest.ModeCrash}},
			keep:        2,
			wantStep:    300, // durable before the prune began
			wantSaveErr: true,
		},
		{
			// One save is one atomic write: its only file fsync is the
			// checkpoint's, so a fault armed on a second one never fires.
			name:     "second file fsync of a save fails",
			rules:    []ckpttest.Rule{{Op: ckpttest.OpSync, Nth: 2, Mode: ckpttest.ModeErr}},
			wantStep: 300,
		},
		{
			name:     "corrupt CRC on the newest checkpoint",
			corrupt:  true,
			wantStep: 200,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := ckpttest.NewDiskFS()
			seedStore(t, mem, dir, 100, 200)

			ffs := ckpttest.NewFaultFS(mem, tc.rules...)
			keep := tc.keep
			if keep == 0 {
				keep = 10
			}
			st, err := ckpt.Open(dir, keep, 42, ffs)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.New()
			st.SetObs(rec)
			saveErr := st.Save(ckpt.TestSnap(300, 5, 300))
			if tc.wantSaveErr && saveErr == nil {
				t.Fatal("fault injected but Save succeeded")
			}
			if !tc.wantSaveErr && saveErr != nil {
				t.Fatalf("save: %v", saveErr)
			}
			var wantFailures int64
			if tc.wantSaveErr {
				wantFailures = 1
			}
			if got := rec.CounterValue(obs.CounterCkptFailures); got != wantFailures {
				t.Fatalf("ckpt_failures = %d, want %d", got, wantFailures)
			}
			if tc.corrupt {
				corruptFile(t, mem, filepath.Join(dir, ckpt.FileName(300)))
			}

			// Recovery runs on the durable state with a clean filesystem,
			// exactly like a restarted process.
			rst, err := ckpt.Open(dir, 10, 42, mem)
			if err != nil {
				t.Fatal(err)
			}
			c, err := rst.LoadLatest()
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if c.Step() != tc.wantStep {
				t.Fatalf("recovered step %d, want %d", c.Step(), tc.wantStep)
			}
		})
	}
}

// TestRecoveryErrorsArePrecise covers the no-valid-checkpoint endgames:
// a directory with only corrupt files names every rejected candidate and
// its reason, and a stale temp file is never a candidate.
func TestRecoveryErrorsArePrecise(t *testing.T) {
	const dir = "ck"
	t.Run("only corrupt checkpoints", func(t *testing.T) {
		mem := ckpt.NewMemFS()
		seedStore(t, mem, dir, 100, 200)
		corruptFile(t, mem, filepath.Join(dir, ckpt.FileName(100)))
		corruptFile(t, mem, filepath.Join(dir, ckpt.FileName(200)))
		st, err := ckpt.Open(dir, 10, 42, mem)
		if err != nil {
			t.Fatal(err)
		}
		_, err = st.LoadLatest()
		if err == nil || errors.Is(err, ckpt.ErrNoCheckpoint) {
			t.Fatalf("want corruption error, got %v", err)
		}
		for _, want := range []string{ckpt.FileName(100), ckpt.FileName(200), "CRC mismatch"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	})
	t.Run("temp files are never candidates", func(t *testing.T) {
		mem := ckpt.NewMemFS()
		seedStore(t, mem, dir, 100)
		// A stale temp from a dead writer must be invisible to recovery.
		f, err := mem.Create(filepath.Join(dir, ckpt.FileName(500)+ckpt.TmpSuffix))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("partial")); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := ckpt.Open(dir, 10, 42, mem)
		if err != nil {
			t.Fatal(err)
		}
		c, err := st.LoadLatest()
		if err != nil {
			t.Fatal(err)
		}
		if c.Step() != 100 {
			t.Fatalf("recovered %d, want 100", c.Step())
		}
	})
}

// TestCrashAtEverySyscall is the crash-consistency sweep: a save of step
// 200 (on top of a durable step-100 checkpoint) is killed at its 1st,
// 2nd, 3rd … filesystem operation in turn, and after every single crash
// point recovery must succeed and land on step 100 or step 200 — never an
// error, never a torn in-between.
func TestCrashAtEverySyscall(t *testing.T) {
	const dir = "ck"
	for k := 1; ; k++ {
		mem := ckpttest.NewDiskFS()
		seedStore(t, mem, dir, 100)

		ffs := ckpttest.NewFaultFS(mem, ckpttest.Rule{Op: ckpttest.OpAny, Nth: k, Mode: ckpttest.ModeCrash})
		st, err := ckpt.Open(dir, 10, 42, ffs)
		if err != nil {
			// Crash during Open's own scan: recovery below must still work.
			if !errors.Is(err, ckpttest.ErrCrashed) {
				t.Fatalf("k=%d: open: %v", k, err)
			}
		} else if err := st.Save(ckpt.TestSnap(200, 5, 200)); err != nil {
			if !errors.Is(err, ckpttest.ErrCrashed) && !ffs.Crashed() {
				t.Fatalf("k=%d: save failed without the injected crash: %v", k, err)
			}
		}

		rst, err := ckpt.Open(dir, 10, 42, mem)
		if err != nil {
			t.Fatalf("k=%d: recovery open: %v", k, err)
		}
		c, err := rst.LoadLatest()
		if err != nil {
			t.Fatalf("k=%d: recovery failed: %v\ndurable state:\n%s", k, err, mem.DumpDurable())
		}
		if got := c.Step(); got != 100 && got != 200 {
			t.Fatalf("k=%d: recovered step %d, want 100 or 200", k, got)
		}

		if !ffs.Crashed() {
			// The save ran to completion before the k-th op: the sweep has
			// covered every syscall. Sanity-check the final state and stop.
			if c.Step() != 200 {
				t.Fatalf("uninterrupted save, but recovered step %d", c.Step())
			}
			if k < 8 {
				t.Fatalf("sweep ended after only %d ops; protocol shrank suspiciously", k)
			}
			return
		}
	}
}

// TestShortWriteLeavesNoCandidate: a short write must not leave a file
// recovery could mistake for a checkpoint (the temp is cleaned up on the
// error path, and even if the cleanup crashed, the .tmp name is filtered).
func TestShortWriteLeavesNoCandidate(t *testing.T) {
	const dir = "ck"
	mem := ckpt.NewMemFS()
	ffs := ckpttest.NewFaultFS(mem, ckpttest.Rule{Op: ckpttest.OpWrite, Match: ckpt.FileName(100), Mode: ckpttest.ModeShort})
	st, err := ckpt.Open(dir, 10, 42, ffs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(ckpt.TestSnap(100, 5, 100)); err == nil {
		t.Fatal("short write but Save succeeded")
	}
	rst, err := ckpt.Open(dir, 10, 42, mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rst.LoadLatest(); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("want ckpt.ErrNoCheckpoint, got %v", err)
	}
}
