package tune

import (
	"errors"
	"fmt"
	"io"

	"tme4a/internal/ckpt"
	"tme4a/internal/md"
	"tme4a/internal/obs"
	"tme4a/internal/water"
)

// Run is one trajectory on a plan: the system, its integrator and the
// completed step count, with a checkpoint store and a drift monitor at the
// cadence. It is the one sequence mdrun and serve's jobs start, step,
// checkpoint, re-plan and fail by.
//
// The caller sets the configuration and calls Start. Dir holds the run's
// checkpoints ("" keeps none), opened over FS (nil: the real filesystem)
// keeping Keep of them under config hash Hash and saved every Every steps
// (0: none). Resume starts from Dir's newest valid checkpoint; when Dir
// holds none, the run starts from Fresh, or fails if Fresh is nil. Fresh
// builds the starting system and its builder record (water.Meta). Rec, if
// non-nil, records the run's stages and counters; Monitor, if non-nil,
// re-plans at every checkpoint. Log receives the start's notices.
type Run struct {
	Plan    Plan // fitted to the box by Start, replaced by a re-plan
	Dt      float64
	Dir     string
	FS      ckpt.FS
	Keep    int
	Hash    uint64
	Every   int
	Resume  bool
	Fresh   func() (*md.System, map[string]int64, error)
	Rec     *obs.Recorder
	Monitor *Monitor
	Log     io.Writer

	Sys   *md.System
	Integ *md.Integrator
	Done  int // completed steps, counted from the trajectory's start

	store *ckpt.Store
	meta  map[string]int64
}

// Start starts the run: from the newest valid checkpoint when asked, else
// from Fresh; then it fits a cutoff at or above half the box to 0.95 of
// it, refuses the plan Check refuses and builds the integrator. A resumed
// run continues its checkpointed trajectory bitwise.
func (r *Run) Start() error {
	var err error
	if r.Dir != "" {
		if r.store, err = ckpt.Open(r.Dir, r.Keep, r.Hash, r.FS); err != nil {
			return fmt.Errorf("opening checkpoint store: %w", err)
		}
		r.store.SetObs(r.Rec)
	}
	var from *ckpt.Checkpoint
	if r.Resume && r.store != nil {
		if from, err = r.store.LoadLatest(); err != nil && (r.Fresh == nil || !errors.Is(err, ckpt.ErrNoCheckpoint)) {
			return fmt.Errorf("resume: %w", err)
		}
	}
	if from != nil {
		// Rebuild the topology the checkpoint was taken from; positions and
		// velocities come from the snapshot, so no equilibration and no
		// fresh velocity draw.
		if r.Sys, err = water.Rebuild(from.Snap); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		r.meta, r.Done = from.Snap.Meta, int(from.Step())
		fmt.Fprintf(r.Log, "resuming from %s/%s at step %d\n", r.Dir, ckpt.FileName(from.Step()), r.Done)
	} else if r.Sys, r.meta, err = r.Fresh(); err != nil {
		return err
	}
	if half := r.Sys.Box.L[0] / 2; r.Plan.Rc >= half {
		r.Plan.Rc = half * 0.95
		fmt.Fprintf(r.Log, "cutoff reduced to %.3f nm (half box)\n", r.Plan.Rc)
	}
	if err := r.Plan.Check(); err != nil {
		return err
	}
	if r.Integ, err = r.Plan.NewIntegrator(r.Sys.Box, r.Dt); err != nil {
		return err
	}
	r.Integ.SetObs(r.Rec)
	if from != nil {
		if err := r.Integ.RestoreResume(r.Sys, from.Snap); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		from.RestoreObs(r.Rec)
	}
	return nil
}

// Step advances the run one step. A panic in it (a solver's internal
// check, which par re-raises on this goroutine) ends the run as an error
// naming the step; Done and the newest checkpoint stay at the last good
// step. Allocation-free: the recovery is a deferred method, not a closure.
func (r *Run) Step() (e md.Energies, err error) {
	defer r.recoverStep(&err)
	e = r.Integ.Step(r.Sys)
	r.Done++
	return e, nil
}

func (r *Run) recoverStep(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("step %d: %v", r.Done+1, p)
	}
}

// Checkpoint ends a step at the run's cadence: at every Every-th step it
// saves the state and hands the Monitor the live stage profile. A re-plan
// switches the integrator through Switch on the saved snapshot, so the
// run goes on exactly as a restart from that checkpoint under the new plan
// would (TestRetuneBitwise), and Checkpoint reports it. A failed save or
// switch is an error the run survives: the previous checkpoint stays the
// resume point (the store counts the failure), the current plan live.
func (r *Run) Checkpoint() (replanned bool, err error) {
	if r.store == nil || r.Every <= 0 || r.Done%r.Every != 0 {
		return false, nil
	}
	snap := r.Integ.CaptureResume(r.Sys, r.meta)
	if err := r.store.Save(snap); err != nil {
		return false, fmt.Errorf("checkpoint at step %d failed: %w", r.Done, err)
	}
	if r.Monitor == nil {
		return false, nil
	}
	next, changed := r.Monitor.Observe(r.Rec.Profile(), int64(r.Done))
	if !changed {
		return false, nil
	}
	integ, err := Switch(r.Sys, snap, next, r.Dt)
	if err != nil {
		return false, fmt.Errorf("retune switch failed, keeping current plan: %w", err)
	}
	integ.SetObs(r.Rec)
	r.Plan, r.Integ = next, integ
	return true, nil
}
