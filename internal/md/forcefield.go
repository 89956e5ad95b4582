package md

import (
	"tme4a/internal/bonded"
	"tme4a/internal/nonbond"
	"tme4a/internal/obs"
	"tme4a/internal/par"
	"tme4a/internal/vec"
)

// MeshSolver is the long-range electrostatics interface satisfied by
// spme.Solver, core.Solver (TME) and msm.Solver: it returns the mesh +
// self energy and accumulates mesh forces. Package solver extends this
// contract with self-description and constructs any of the three from a
// method name, so callers that select the method at runtime (cmd/mdrun,
// tune.Plan.NewSolver) need not import the concrete packages.
type MeshSolver interface {
	LongRange(pos []vec.V, q []float64, f []vec.V) float64
}

// Energies is the per-step energy breakdown in kJ/mol.
type Energies struct {
	CoulShort float64 // erfc-screened short-range Coulomb
	CoulLong  float64 // mesh + self energy
	CoulExcl  float64 // Ewald exclusion corrections
	LJ        float64
	Bonded    float64
	Kinetic   float64
}

// Potential returns the total potential energy.
func (e Energies) Potential() float64 {
	return e.CoulShort + e.CoulLong + e.CoulExcl + e.LJ + e.Bonded
}

// Total returns kinetic + potential energy.
func (e Energies) Total() float64 { return e.Potential() + e.Kinetic }

// MinMeshReach is the least pair-list reach Rc + Skin, in nm, that a mesh
// run accepts from outside input (cmd/mdrun's flags, a served spec): about
// twice TIP3P's H–H distance, so the list holds every excluded pair of a
// water box and ForceField's exclusion check cannot fire.
const MinMeshReach = 0.3

// ForceField composes the interaction terms of a simulation. Mesh and
// Bonded may be nil. Alpha is the Ewald splitting parameter shared by the
// short-range erfc term and the mesh; with Alpha = 0 and Mesh = nil
// electrostatics are plain cutoff Coulomb. The short-range term runs over
// one Verlet pair list at cutoff Rc + Skin, rebuilt when an atom has moved
// more than Skin/2 (the GROMACS verlet scheme the paper's reference runs
// use); Skin = 0 rebuilds it whenever any atom has moved, which is every
// step. With a mesh the list also holds the excluded pairs and its pair
// loop evaluates their Ewald exclusion correction (CoulExcl), so every
// excluded pair must lie within Rc + Skin of its partner: a build that
// misses one panics (nonbond.CheckExclusions).
//
// Every term writes into its own force buffer and the buffers are merged
// per atom in a fixed order, so the short-range pair engine, the mesh
// solve and the bonded terms can run concurrently as the three indices of
// one par.For with results bitwise identical at any GOMAXPROCS — the
// software analogue of the MDGRAPE-4A pipelines, LRU and GP cores working
// the same step in parallel. Every
// term is evaluated on every Compute, as on the machine. All scratch is
// reused, so a steady-state force evaluation allocates nothing. The only
// state that outlives a Compute and is not a function of the current
// positions is the pair list's build positions, which
// Integrator.CaptureResume carries across a restart.
type ForceField struct {
	Alpha  float64
	Rc     float64
	Skin   float64 // Verlet buffer (nm); 0 rebuilds the pair list every step
	Mesh   MeshSolver
	Bonded *bonded.FF

	// vlist is the short-range pair list, held by value and set up in
	// place on first use (see verlet).
	vlist nonbond.VerletList
	// meshForces is the mesh term's private force buffer; meshEnergy is
	// its energy from the last evaluation.
	meshForces []vec.V
	meshEnergy float64
	// bondedFrc is the bonded terms' private force buffer.
	bondedFrc []vec.V
	// short and eBonded are the short-range and bonded results of the last
	// evaluation, stored by the term bodies (see terms.run).
	short   nonbond.Result
	eBonded float64

	// Obs, when non-nil, records the per-step stage timing breakdown. Set
	// it through SetObs so the recorder propagates to the mesh solver and
	// pair lists. A nil recorder makes every instrumentation site a no-op,
	// preserving the zero-allocation and determinism contracts.
	Obs *obs.Recorder
}

// obsWirer is satisfied by the instrumentable mesh solvers — every
// method in package solver (solver.Solver requires SetObs) wires the
// recorder through to its mesher, pool and sub-solvers. A MeshSolver
// without a SetObs method, such as a test fake, simply goes untimed below
// the mesh-total stage.
type obsWirer interface {
	SetObs(*obs.Recorder)
}

// SetObs attaches a stage recorder to the force field and every
// instrumentable component it owns (nil detaches). Call it before or
// between steps, never concurrently with Compute.
func (ff *ForceField) SetObs(r *obs.Recorder) {
	ff.Obs = r
	if w, ok := ff.Mesh.(obsWirer); ok {
		w.SetObs(r)
	}
	ff.vlist.SetObs(r)
}

// Compute zeroes sys.Frc and evaluates all force-field terms, returning
// the energy breakdown (Kinetic included for convenience).
func (ff *ForceField) Compute(sys *System) Energies {
	// The three force terms write disjoint buffers (sys.Frc, meshForces,
	// bondedFrc) and disjoint result fields, so they can overlap. Each is
	// internally deterministic and the merge below is per-atom with a fixed
	// association order, so the result does not depend on how the terms
	// interleave.
	sp := ff.Obs.Start(obs.StageOverlap)
	par.For(3, terms{ff, sys}, terms.run)
	sp.Stop()

	var e Energies
	e.CoulShort = ff.short.ECoul
	e.LJ = ff.short.ELJ
	e.CoulExcl = ff.short.EExcl
	e.Bonded = ff.eBonded
	if ff.Mesh != nil {
		e.CoulLong = ff.meshEnergy
	}
	ff.merge(sys)
	e.Kinetic = sys.KineticEnergy()
	return e
}

// terms is the argument of the force-term body: one evaluation's three
// terms, the software analogue of MDGRAPE-4A's nonbond pipelines, LRU and
// GP cores working the same step concurrently.
type terms struct {
	ff  *ForceField
	sys *System
}

// run evaluates term i: 0 short range, 1 mesh, 2 bonded. With one worker
// they run in that order.
func (t terms) run(i int) {
	switch i {
	case 0:
		t.ff.short = t.ff.shortRange(t.sys)
	case 1:
		t.ff.meshTerm(t.sys)
	case 2:
		t.ff.eBonded = t.ff.bondedTerm(t.sys)
	}
}

// shortRange zeroes sys.Frc and evaluates the short-range nonbonded term
// into it over the pair list, rebuilt first when stale.
func (ff *ForceField) shortRange(sys *System) nonbond.Result {
	sp := ff.Obs.Start(obs.StageShortRange)
	defer sp.Stop()
	for i := range sys.Frc {
		sys.Frc[i] = vec.V{}
	}
	vl := ff.verlet(sys)
	if vl.NeedsRebuild(sys.Pos) {
		vl.Rebuild(sys.Pos, sys.Excl)
	}
	res := vl.Compute(sys.Pos, sys.Q, sys.LJ, ff.Alpha, sys.Frc)
	if vl.EwaldExcl {
		nonbond.CheckExclusions(res, sys.Box, sys.Pos, sys.Excl, ff.Rc+ff.Skin)
	}
	ff.Obs.Add(obs.CounterPairsEvaluated, int64(res.Pairs))
	return res
}

// verlet returns the pair list, set up in place for the system's box on
// first use, correcting the excluded pairs when there is a mesh.
func (ff *ForceField) verlet(sys *System) *nonbond.VerletList {
	if ff.vlist.Cutoff == 0 {
		ff.vlist.Init(sys.Box, ff.Rc, ff.Skin)
		ff.vlist.EwaldExcl = ff.Mesh != nil
	}
	return &ff.vlist
}

// meshTerm evaluates the long-range mesh into its private buffer.
func (ff *ForceField) meshTerm(sys *System) {
	if ff.Mesh == nil {
		return
	}
	sp := ff.Obs.Start(obs.StageMesh)
	defer sp.Stop()
	ff.Obs.Add(obs.CounterMeshSolves, 1)
	if len(ff.meshForces) != sys.N() {
		ff.meshForces = make([]vec.V, sys.N()) //tmevet:ignore noalloc -- grow-once on the first mesh evaluation / atom-count change
	}
	for i := range ff.meshForces {
		ff.meshForces[i] = vec.V{}
	}
	ff.meshEnergy = ff.Mesh.LongRange(sys.Pos, sys.Q, ff.meshForces)
}

// bondedTerm evaluates the bonded terms into their private buffer.
func (ff *ForceField) bondedTerm(sys *System) float64 {
	if ff.Bonded == nil {
		return 0
	}
	sp := ff.Obs.Start(obs.StageBonded)
	defer sp.Stop()
	if len(ff.bondedFrc) != sys.N() {
		ff.bondedFrc = make([]vec.V, sys.N()) //tmevet:ignore noalloc -- grow-once on the first evaluation / atom-count change
	}
	for i := range ff.bondedFrc {
		ff.bondedFrc[i] = vec.V{}
	}
	return ff.Bonded.Compute(sys.Box, sys.Pos, ff.bondedFrc)
}

// merge folds the term buffers into sys.Frc, in parallel over atom ranges.
//
//tme:noalloc
func (ff *ForceField) merge(sys *System) {
	var mesh, bond []vec.V
	if ff.Mesh != nil {
		mesh = ff.meshForces
	}
	if ff.Bonded != nil {
		bond = ff.bondedFrc
	}
	if mesh == nil && bond == nil {
		return
	}
	sp := ff.Obs.Start(obs.StageMerge)
	defer sp.Stop()
	atoms := sys.All().Atoms
	par.ForRangeGrain(len(atoms), mergeGrain, mergeJob{sys.Frc, mesh, bond, atoms}, mergeJob.run)
}

// mergeGrain is the least number of atoms per merge chunk.
const mergeGrain = 64

// mergeJob is the argument of merge's parallel body.
type mergeJob struct {
	frc, mesh, bond []vec.V
	atoms           []int32
}

func (j mergeJob) run(lo, hi int) { MergeForces(j.frc, j.mesh, j.bond, j.atoms[lo:hi]) }

// MergeForces adds the mesh and bonded term buffers (nil for an absent
// term) into frc for the listed atoms. Per atom the association order is
// fixed — short-range + mesh + bonded — so the merge is bitwise identical
// however the atoms are divided among workers or ranks.
//
//tme:noalloc
func MergeForces(frc, mesh, bonded []vec.V, atoms []int32) {
	for _, i := range atoms {
		fi := frc[i]
		if mesh != nil {
			fi = fi.Add(mesh[i])
		}
		if bonded != nil {
			fi = fi.Add(bonded[i])
		}
		frc[i] = fi
	}
}
