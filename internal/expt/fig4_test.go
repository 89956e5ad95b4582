package expt

import (
	"fmt"
	"runtime"
	"testing"

	"tme4a/internal/ckpt"
	"tme4a/internal/ckpt/ckpttest"
	"tme4a/internal/md"
)

// TestFig4Resume kills the Fig-4 TME trajectory (M = 3, g_c = 8) and
// resumes it from its newest checkpoint twice: once from an intact
// checkpoint at the kill step, and once with that checkpoint's write torn
// mid-buffer, so recovery falls back one checkpoint and replays the gap.
// Both resumed runs must match the uninterrupted one bit for bit at every
// remaining step, at GOMAXPROCS 1 and 4. md.TestResumeIsBitwise holds
// the integrator, list and SPME state to the same contract; this is the
// resume check on a TME mesh.
func TestFig4Resume(t *testing.T) {
	cfg := QuickFig4()
	cfg.WaterSide, cfg.Rc, cfg.EquilSteps = 4, 0.6, 20
	const (
		m      = 3
		steps  = 60
		killAt = 40
		every  = 10
		keep   = 3
	)
	hash := ckpt.ConfigHash(fmt.Sprintf("fig4 side=%d grid=%d rc=%g m=%d seed=%d",
		cfg.WaterSide, cfg.GridN, cfg.Rc, m, cfg.Seed))
	base := cfg.base()

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs-%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

			hashes := make([]uint64, steps+1)
			ref := cloneSystem(base)
			integ := cfg.integrator(m, ref.Box)
			for s := 1; s <= steps; s++ {
				integ.Step(ref)
				hashes[s] = md.StateHash(ref)
			}

			// interrupted runs to killAt, checkpointing every few steps; a
			// failed save is the process dying at that step.
			interrupted := func(fsys ckpt.FS) error {
				st, err := ckpt.Open("run", keep, hash, fsys)
				if err != nil {
					return err
				}
				sys := cloneSystem(base)
				integ := cfg.integrator(m, sys.Box)
				for s := 1; s <= killAt; s++ {
					integ.Step(sys)
					if s%every == 0 {
						if err := st.Save(integ.CaptureResume(sys, nil)); err != nil {
							return err
						}
					}
				}
				return nil
			}
			// resume restores the newest valid checkpoint and runs to the
			// end, returning the step it restarted at.
			resume := func(fsys ckpt.FS) int64 {
				st, err := ckpt.Open("run", keep, hash, fsys)
				if err != nil {
					t.Fatal(err)
				}
				c, err := st.LoadLatest()
				if err != nil {
					t.Fatal(err)
				}
				sys := cloneSystem(base)
				integ := cfg.integrator(m, sys.Box)
				if err := integ.RestoreResume(sys, c.Snap); err != nil {
					t.Fatal(err)
				}
				for s := int(c.Step()) + 1; s <= steps; s++ {
					integ.Step(sys)
					if got := md.StateHash(sys); got != hashes[s] {
						t.Fatalf("resumed from %d, diverged at step %d (hash %016x vs %016x)",
							c.Step(), s, got, hashes[s])
					}
				}
				return c.Step()
			}

			clean := ckpt.NewMemFS()
			if err := interrupted(clean); err != nil {
				t.Fatal(err)
			}
			if from := resume(clean); from != killAt {
				t.Errorf("clean resume from %d, want %d", from, killAt)
			}

			torn := ckpt.NewMemFS()
			ffs := ckpttest.NewFaultFS(torn, ckpttest.Rule{Op: ckpttest.OpWrite, Match: ckpt.FileName(killAt), Mode: ckpttest.ModeTorn})
			if err := interrupted(ffs); err == nil {
				t.Fatalf("torn write at step %d went unreported", killAt)
			}
			if from := resume(torn); from != killAt-every {
				t.Errorf("torn resume from %d, want %d", from, killAt-every)
			}
		})
	}
}
