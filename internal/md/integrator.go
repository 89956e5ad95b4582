package md

import (
	"math"

	"tme4a/internal/obs"
	"tme4a/internal/par"
	"tme4a/internal/vec"
)

// Integrator advances a System with the velocity-Verlet scheme and SETTLE
// constraints, matching the three-phase structure the paper describes for
// the GP cores (Sec. V.A): half-kick + drift, force evaluation, half-kick.
type Integrator struct {
	FF *ForceField
	Dt float64 // ps

	// Thermostat, if non-nil, is applied after each step. Both the
	// Berendsen weak-coupling Thermostat and the canonical CSVR satisfy
	// the interface.
	Thermostat Coupler

	initialized bool
	stepCount   int
	old         []vec.V // reference positions of constrained waters
}

// SetObs attaches a stage recorder to the integrator's force field and
// everything below it (nil detaches). Step reads the recorder from the
// force field, so this is pure delegation.
func (in *Integrator) SetObs(r *obs.Recorder) { in.FF.SetObs(r) }

// Step advances the system by one time step and returns the energies
// evaluated at the new positions. The two integration phases are the stage
// functions the rank engine runs too; here one owner holds every atom.
//
//tme:noalloc
func (in *Integrator) Step(sys *System) Energies {
	if !in.initialized {
		in.FF.Compute(sys)
		in.initialized = true
	}
	rec := in.FF.Obs
	spStep := rec.Start(obs.StageStep)
	own := sys.All()
	if len(in.old) != 3*len(own.Waters) {
		in.old = make([]vec.V, 3*len(own.Waters)) //tmevet:ignore noalloc -- grow-once on first step / atom-count change
	}

	// Phase 1: half-kick with the previous step's forces, drift, SETTLE.
	sys.KickDrift(own, in.Dt, in.old, rec)

	// Phase 2: forces at the new positions.
	in.stepCount++
	e := in.FF.Compute(sys)

	// Phase 3: second half-kick and the velocity half of SETTLE.
	sys.KickConstrain(own, in.Dt, rec)

	if in.Thermostat != nil {
		in.Thermostat.Apply(sys, in.Dt)
	}
	e.Kinetic = sys.KineticEnergy()
	spStep.Stop()
	return e
}

// Owned lists what one owner of a decomposed step integrates: atom indices
// and rigid-water indices (into System.RigidWaters), both ascending. The
// serial engine is the owner of everything (System.All); a rank of
// internal/rank owns the molecules that started in its cell layers. Every
// update of the two phases below reads and writes only its own atom or
// molecule, so running them over disjoint owners composes, bit for bit, to
// the all-atoms call.
type Owned struct {
	Atoms, Waters []int32
}

// KickDrift is phase 1 of the velocity-Verlet step for the atoms and waters
// of own: half-kick with the forces in s.Frc, drift, then SETTLE of the
// drifted waters against their pre-drift positions, the constraint impulse
// folded into the velocities via v = (r_constrained − r_old)/dt. old is
// scratch for those reference positions, three per owned water.
//
//tme:noalloc
func (s *System) KickDrift(own Owned, dt float64, old []vec.V, rec *obs.Recorder) {
	pos, vel := s.Pos, s.Vel
	sp := rec.Start(obs.StageIntegrate)
	s.halfKick(own.Atoms, dt)
	if s.WaterModel != nil {
		for k, wi := range own.Waters {
			w := s.RigidWaters[wi]
			old[3*k], old[3*k+1], old[3*k+2] = pos[w[0]], pos[w[1]], pos[w[2]]
		}
	}
	for _, i := range own.Atoms {
		pos[i] = pos[i].Add(vel[i].Scale(dt))
	}
	sp.Stop()
	if s.WaterModel == nil {
		return
	}
	sp = rec.Start(obs.StageConstraint)
	par.ForRangeGrain(len(own.Waters), settleGrain, settleJob{s, own.Waters, old, dt}, settleJob.positions)
	sp.Stop()
}

// settleGrain is the least number of waters a SETTLE worker takes: a
// 216-water box stays on one worker, where a goroutine would cost more than
// it saves.
const settleGrain = 128

// settleJob is the argument of the parallel SETTLE bodies. Water k of the
// list reads and writes only its own three atoms (and its three reference
// positions old[3k…3k+2]), so any split gives the serial bits.
type settleJob struct {
	s      *System
	waters []int32
	old    []vec.V
	dt     float64
}

// positions constrains the drifted waters [lo, hi) of the list against
// their reference positions and sets their velocities from the
// displacement.
//
//tme:noalloc
func (j settleJob) positions(lo, hi int) {
	s, pos, vel, old, dt := j.s, j.s.Pos, j.s.Vel, j.old, j.dt
	for k := lo; k < hi; k++ {
		w := s.RigidWaters[j.waters[k]]
		a0, b0, c0 := old[3*k], old[3*k+1], old[3*k+2]
		a, b, c := s.WaterModel.Settle(a0, b0, c0, pos[w[0]], pos[w[1]], pos[w[2]])
		vel[w[0]] = a.Sub(a0).Scale(1 / dt)
		vel[w[1]] = b.Sub(b0).Scale(1 / dt)
		vel[w[2]] = c.Sub(c0).Scale(1 / dt)
		pos[w[0]], pos[w[1]], pos[w[2]] = a, b, c
	}
}

// velocities projects the bond-stretching velocity components out of the
// waters [lo, hi) of the list.
//
//tme:noalloc
func (j settleJob) velocities(lo, hi int) {
	s := j.s
	for _, wi := range j.waters[lo:hi] {
		w := s.RigidWaters[wi]
		s.WaterModel.SettleVelocities(
			s.Pos[w[0]], s.Pos[w[1]], s.Pos[w[2]],
			&s.Vel[w[0]], &s.Vel[w[1]], &s.Vel[w[2]])
	}
}

// KickConstrain is phase 3 for the atoms and waters of own: the second
// half-kick with the new forces, then removal of the constraint-violating
// velocity components (the velocity half of SETTLE / RATTLE).
//
//tme:noalloc
func (s *System) KickConstrain(own Owned, dt float64, rec *obs.Recorder) {
	sp := rec.Start(obs.StageIntegrate)
	s.halfKick(own.Atoms, dt)
	sp.Stop()
	sp = rec.Start(obs.StageConstraint)
	s.settleVelocities(own.Waters)
	sp.Stop()
}

// halfKick adds half a step of the acceleration F/m to the listed atoms'
// velocities.
//
//tme:noalloc
func (s *System) halfKick(atoms []int32, dt float64) {
	vel, frc, mass := s.Vel, s.Frc, s.Mass
	for _, i := range atoms {
		vel[i] = vel[i].Add(frc[i].Scale(0.5 * dt / mass[i]))
	}
}

// CaptureResume captures the state needed to resume the run bitwise: the
// system snapshot plus the step counter and the Verlet-list build
// positions. Call it between steps (e.g. from a Run report callback),
// never concurrently with Step.
//
// Forces and energies are not captured: they are a pure function of the
// positions and the pair list, so the first resumed Step recomputes them
// bit for bit. The SETTLE scratch (in.old) is refilled from the current
// positions at the top of every step before anything reads it. A CSVR
// thermostat's RNG state is not captured — CSVR runs resume as valid
// canonical trajectories but not bitwise-identical ones.
func (in *Integrator) CaptureResume(sys *System, meta map[string]int64) *Snapshot {
	snap := sys.TakeSnapshot(meta)
	snap.Step = int64(in.stepCount)
	if ref := in.FF.vlist.RefPositions(); ref != nil && in.FF.Skin > 0 {
		snap.VerletRef = append([]vec.V(nil), ref...)
	}
	return snap
}

// RestoreResume restores a CaptureResume snapshot into sys and the
// integrator's step counter, and re-primes the pair list, so the next
// Step continues the checkpointed trajectory bitwise. The integrator is
// left uninitialized: that Step first recomputes the forces at the
// restored positions. The system must have the topology the snapshot was
// taken from (same builder, same atom count).
func (in *Integrator) RestoreResume(sys *System, snap *Snapshot) error {
	if err := sys.Restore(snap); err != nil {
		return err
	}
	in.stepCount = int(snap.Step)
	in.initialized = false
	if len(snap.VerletRef) > 0 {
		// Rebuild is deterministic in (positions, exclusions), so building
		// at the captured positions brings back the clusters, entries and
		// summation order bitwise, where a build at the resume positions
		// would reorder them.
		in.FF.verlet(sys).Rebuild(snap.VerletRef, sys.Excl)
	}
	return nil
}

// Run advances n steps, invoking report (if non-nil) after every step with
// the 1-based step index and its energies.
func (in *Integrator) Run(sys *System, n int, report func(step int, e Energies)) Energies {
	var e Energies
	for s := 1; s <= n; s++ {
		e = in.Step(sys)
		if report != nil {
			report(s, e)
		}
	}
	return e
}

// Coupler adjusts velocities after each step (thermostats).
type Coupler interface {
	Apply(sys *System, dt float64)
}

// Thermostat is a Berendsen-style weak-coupling velocity rescaler.
type Thermostat struct {
	T   float64 // target temperature (K)
	Tau float64 // coupling time (ps); Tau <= Dt gives hard rescaling
}

// Apply rescales velocities toward the target temperature.
func (th *Thermostat) Apply(sys *System, dt float64) {
	cur := sys.Temperature()
	if cur <= 0 {
		return
	}
	lambda := math.Sqrt(1 + dt/math.Max(th.Tau, dt)*(th.T/cur-1))
	sys.ScaleVelocities(lambda)
}
