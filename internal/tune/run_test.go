package tune_test

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"tme4a/internal/ckpt"
	"tme4a/internal/md"
	"tme4a/internal/tune"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// runBox is the side-3 water box every Run case starts from.
func runBox() (*md.System, map[string]int64, error) {
	sys := water.Fresh(3, 5, 10, 0.001, 300, 0.42)
	water.Draw(sys, 300, 5)
	return sys, water.Meta(3, 5), nil
}

// newRun configures a Run of the buffered TME plan over fsys, saving every
// `every` steps into directory ck.
func newRun(fsys ckpt.FS, every int, resume bool) *tune.Run {
	return &tune.Run{
		Plan: tune.Plan{Method: "tme", Rc: 0.42, Skin: 0.1, Grid: [3]int{16, 16, 16}, Gc: 8, M: 2, Levels: 1, Order: tune.Order},
		Dt:   0.001, Dir: "ck", FS: fsys, Keep: 3, Hash: 7, Every: every, Resume: resume,
		Fresh: runBox, Log: io.Discard,
	}
}

// advance steps r to step n through Run's checkpoint boundary, recording
// each step.
func advance(t *testing.T, r *tune.Run, n int) []stepRecord {
	t.Helper()
	var out []stepRecord
	for r.Done < n {
		e, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		out = append(out, stepRecord{Hash: md.StateHash(r.Sys), E: e})
	}
	return out
}

// panicMesh wraps a mesh solver and panics once armed, as a solver's
// internal check does.
type panicMesh struct {
	md.MeshSolver
	armed *bool
}

func (p panicMesh) LongRange(pos []vec.V, q []float64, f []vec.V) float64 {
	if *p.armed {
		panic("injected mesh failure")
	}
	return p.MeshSolver.LongRange(pos, q, f)
}

// TestRun holds tune.Run, the run sequence mdrun and serve share, to its
// contract on MemFS: a checkpointed run resumed by a second Run continues
// the straight trajectory bitwise at any GOMAXPROCS; a start without
// Resume ignores the store's checkpoints; a cutoff at or above half the
// box is fitted; and a step that panics comes back as an error naming it,
// with the last good checkpoint still loadable.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		test func(t *testing.T)
	}{
		{"resume continues bitwise", func(t *testing.T) {
			var ref []stepRecord
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				straight := newRun(nil, 0, false)
				straight.Dir = ""
				if err := straight.Start(); err != nil {
					t.Fatal(err)
				}
				want := advance(t, straight, 30)
				if ref == nil {
					ref = want
				}
				fsys := ckpt.NewMemFS()
				first := newRun(fsys, 10, false)
				if err := first.Start(); err != nil {
					t.Fatal(err)
				}
				got := advance(t, first, 25) // dies past its step-20 checkpoint
				second := newRun(fsys, 10, true)
				second.Fresh = nil
				if err := second.Start(); err != nil {
					t.Fatal(err)
				}
				if second.Done != 20 {
					t.Fatalf("procs %d: resumed at step %d, want 20", procs, second.Done)
				}
				got = append(got[:20], advance(t, second, 30)...)
				for s := range want {
					if got[s] != want[s] || want[s] != ref[s] {
						t.Fatalf("procs %d: step %d: resumed %+v, straight %+v, GOMAXPROCS 1 %+v", procs, s+1, got[s], want[s], ref[s])
					}
				}
			}
		}},
		{"start without resume ignores checkpoints", func(t *testing.T) {
			fsys := ckpt.NewMemFS()
			first := newRun(fsys, 5, false)
			if err := first.Start(); err != nil {
				t.Fatal(err)
			}
			want := advance(t, first, 10)
			again := newRun(fsys, 5, false)
			if err := again.Start(); err != nil {
				t.Fatal(err)
			}
			if again.Done != 0 {
				t.Fatalf("started at step %d, want a fresh start", again.Done)
			}
			if got := advance(t, again, 1); got[0] != want[0] {
				t.Fatalf("fresh step 1 %+v, want %+v", got[0], want[0])
			}
		}},
		{"resume on an empty store starts fresh only with Fresh", func(t *testing.T) {
			r := newRun(ckpt.NewMemFS(), 5, true)
			if err := r.Start(); err != nil || r.Done != 0 {
				t.Fatalf("Start = %v at step %d, want a fresh start", err, r.Done)
			}
			r = newRun(ckpt.NewMemFS(), 5, true)
			r.Fresh = nil
			if err := r.Start(); !errors.Is(err, ckpt.ErrNoCheckpoint) || !strings.HasPrefix(err.Error(), "resume: ") {
				t.Fatalf("Start without Fresh = %v, want resume: ... ErrNoCheckpoint", err)
			}
		}},
		{"cutoff at or above half the box is fitted", func(t *testing.T) {
			half := water.CubicBoxFor(27).L[0] / 2
			for _, rc := range []float64{half, 2 * half} {
				var log strings.Builder
				r := newRun(nil, 0, false)
				r.Dir, r.Plan, r.Log = "", tune.Plan{Method: "cutoff", Rc: rc, Grid: [3]int{16, 16, 16}, Order: tune.Order}, &log
				if err := r.Start(); err != nil {
					t.Fatal(err)
				}
				if r.Plan.Rc != 0.95*half || r.Integ.FF.Rc != r.Plan.Rc || !strings.Contains(log.String(), "cutoff reduced") {
					t.Errorf("rc %g: fitted to %g (force field %g), log %q; want %g", rc, r.Plan.Rc, r.Integ.FF.Rc, log.String(), 0.95*half)
				}
			}
		}},
		{"a panicking step fails the run at that step", func(t *testing.T) {
			fsys := ckpt.NewMemFS()
			r := newRun(fsys, 5, false)
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			armed := false
			r.Integ.FF.Mesh = panicMesh{r.Integ.FF.Mesh, &armed}
			advance(t, r, 7)
			armed = true
			if _, err := r.Step(); err == nil || !strings.Contains(err.Error(), "step 8: injected mesh failure") || r.Done != 7 {
				t.Fatalf("Step = %v at Done %d; want an error naming step 8, Done 7", err, r.Done)
			}
			back := newRun(fsys, 5, true)
			back.Fresh = nil
			if err := back.Start(); err != nil || back.Done != 5 {
				t.Fatalf("resume after the panic: %v at step %d, want the step-5 checkpoint", err, back.Done)
			}
		}},
	} {
		t.Run(tc.name, tc.test)
	}
}
