package tune

import (
	"fmt"

	"tme4a/internal/md"
	"tme4a/internal/solver"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
)

// Alpha returns the plan's Ewald splitting parameter — derived, not
// stored: every run shares the spme.RTol convention.
func (p Plan) Alpha() float64 { return spme.Alpha(p.Rc) }

// SolverConfig maps the plan onto solver.Config, the superset of the
// methods' parameters that solver.Validate and solver.New take.
func (p Plan) SolverConfig() solver.Config {
	return solver.Config{
		Alpha:  p.Alpha(),
		Rc:     p.Rc,
		Order:  p.Order,
		N:      p.Grid,
		Levels: p.Levels,
		M:      p.M,
		Gc:     p.Gc,
		Kernel: p.Kernel,
	}
}

// Check reports the two run conventions every entry point refuses a plan
// for before it builds anything: a kernel family on a method other than
// tme, and a mesh run whose pair list reach Rc + Skin falls below
// md.MinMeshReach (the list would miss excluded pairs whose mesh
// interaction the pair loop takes back).
func (p Plan) Check() error {
	if p.Kernel != "" && p.Method != "tme" {
		return fmt.Errorf("kernel %q applies only to method tme", p.Kernel)
	}
	if p.Method != "cutoff" && p.Rc+p.Skin < md.MinMeshReach {
		return fmt.Errorf("rc + skin = %g nm is below %g nm: the pair list would miss excluded pairs whose mesh interaction it takes back", p.Rc+p.Skin, md.MinMeshReach)
	}
	return nil
}

// NewSolver constructs the plan's long-range solver for a box; a "cutoff"
// plan (erfc-screened short range only) has none and returns nil.
func (p Plan) NewSolver(box vec.Box) (solver.Solver, error) {
	if p.Method == "cutoff" {
		return nil, nil
	}
	return solver.New(p.Method, p.SolverConfig(), box)
}

// NewIntegrator constructs a velocity-Verlet integrator of time step dt
// running the plan's force field: its solver for the box behind the
// plan's cutoff, splitting and skin.
func (p Plan) NewIntegrator(box vec.Box, dt float64) (*md.Integrator, error) {
	mesh, err := p.NewSolver(box)
	if err != nil {
		return nil, err
	}
	ff := &md.ForceField{Alpha: p.Alpha(), Rc: p.Rc, Skin: p.Skin, Mesh: mesh}
	return &md.Integrator{FF: ff, Dt: dt}, nil
}

// PlainState strips a resume snapshot to the plan-independent state:
// box, positions, velocities, builder metadata and the step counter. The
// one field it drops, the Verlet reference positions, belongs to the
// *old* plan's pair list (its cutoff and skin) and must not leak across
// a retune. The new plan's first Step builds its own list and computes
// forces from scratch, as after any resume.
//
// This is the retune bitwise guarantee: a mid-run switch and a fresh
// process restoring the same checkpoint both pass through PlainState,
// so they hand the new plan byte-identical inputs (TestRetuneBitwise).
// The returned snapshot aliases the input's slices; it is a read-only
// view for RestoreResume, not an independent copy.
func PlainState(snap *md.Snapshot) *md.Snapshot {
	return &md.Snapshot{
		Box:  snap.Box,
		Pos:  snap.Pos,
		Vel:  snap.Vel,
		Meta: snap.Meta,
		Step: snap.Step,
	}
}

// Switch moves a running system onto plan at a checkpoint boundary. The
// snapshot should come from Integrator.CaptureResume (or a checkpoint
// load) at that boundary; its plan-specific caches are dropped via
// PlainState, so the hand-off is exactly a fresh resume under the new
// plan. The integrator records nothing until the caller's SetObs.
func Switch(sys *md.System, snap *md.Snapshot, plan Plan, dt float64) (*md.Integrator, error) {
	integ, err := plan.NewIntegrator(snap.Box, dt)
	if err != nil {
		return nil, err
	}
	return integ, integ.RestoreResume(sys, PlainState(snap))
}
