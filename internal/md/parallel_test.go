package md_test

// Whole-stack determinism and steady-state allocation gates. A trajectory
// must be bitwise reproducible at any GOMAXPROCS: the short-range pair
// list (with the exclusion corrections), the mesh solve and the bonded
// terms each fix their accumulation orders independently of the worker count,
// and the force-field merge is per-atom in a fixed association order.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tme4a/internal/core"
	"tme4a/internal/md"
	"tme4a/internal/obs"
	"tme4a/internal/par/partest"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

var gomaxprocsLevels = []int{1, 2, 7, 16}

type trajState struct {
	pos, vel, frc []vec.V
	e             md.Energies
}

// runTrajectory builds a fresh deterministic system and force field and
// advances it nSteps, capturing the final state. Everything — including
// the equilibration inside water.Equilibrate — runs at the caller's
// GOMAXPROCS, so any order-dependence anywhere in the stack shows up.
// A non-nil rec attaches the stage recorder, which must not perturb the
// trajectory (TestObsBitwiseNeutral).
func runTrajectory(nSteps int, skin float64, withMesh bool, rec *obs.Recorder) trajState {
	box := water.CubicBoxFor(64)
	sys := water.Build(4, 4, 4, box, 42)
	water.Equilibrate(sys, 20, 0.001, 300, 0.7, 7)
	rc := 0.7
	alpha := spme.AlphaFromRTol(rc, 1e-4)
	ff := &md.ForceField{Alpha: alpha, Rc: rc, Skin: skin}
	if withMesh {
		ff.Mesh = spme.New(spme.Params{Alpha: alpha, Rc: rc, Order: 6, N: [3]int{16, 16, 16}}, sys.Box)
	}
	integ := &md.Integrator{FF: ff, Dt: 0.001}
	if rec != nil {
		integ.SetObs(rec)
	}
	var e md.Energies
	for s := 0; s < nSteps; s++ {
		e = integ.Step(sys)
	}
	st := trajState{
		pos: make([]vec.V, sys.N()),
		vel: make([]vec.V, sys.N()),
		frc: make([]vec.V, sys.N()),
		e:   e,
	}
	copy(st.pos, sys.Pos)
	copy(st.vel, sys.Vel)
	copy(st.frc, sys.Frc)
	return st
}

func TestStepBitwiseAcrossGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		name string
		skin float64
		mesh bool
	}{
		{"cutoff", 0, false},
		{"verlet+mesh", 0.1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref trajState
			for li, p := range gomaxprocsLevels {
				old := runtime.GOMAXPROCS(p)
				st := runTrajectory(5, tc.skin, tc.mesh, nil)
				runtime.GOMAXPROCS(old)
				if li == 0 {
					ref = st
					continue
				}
				if st.e != ref.e {
					t.Fatalf("GOMAXPROCS=%d: energies differ: %+v vs %+v", p, st.e, ref.e)
				}
				for i := range ref.pos {
					if st.pos[i] != ref.pos[i] || st.vel[i] != ref.vel[i] || st.frc[i] != ref.frc[i] {
						t.Fatalf("GOMAXPROCS=%d: atom %d state differs:\npos %v vs %v\nvel %v vs %v\nfrc %v vs %v",
							p, i, st.pos[i], ref.pos[i], st.vel[i], ref.vel[i], st.frc[i], ref.frc[i])
					}
				}
			}
		})
	}
}

// TestSettleBitwiseAcrossGOMAXPROCS: SETTLE splits its waters over
// workers once a box has more than one grain of them (the trajectories
// above are too small to). Phases 1 and 3 on a 512-water box with thermal
// velocities and random forces give the serial bits at every worker count.
func TestSettleBitwiseAcrossGOMAXPROCS(t *testing.T) {
	run := func() (pos, vel []vec.V) {
		sys := water.Build(8, 8, 8, water.CubicBoxFor(512), 5)
		sys.InitVelocities(300, rand.New(rand.NewSource(6)))
		rng := rand.New(rand.NewSource(7))
		for i := range sys.Frc {
			sys.Frc[i] = vec.V{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(500)
		}
		old := make([]vec.V, 3*len(sys.RigidWaters))
		for step := 0; step < 3; step++ {
			sys.KickDrift(sys.All(), 0.002, old, nil)
			sys.KickConstrain(sys.All(), 0.002, nil)
		}
		return sys.Pos, sys.Vel
	}
	var refPos, refVel []vec.V
	for li, p := range gomaxprocsLevels {
		old := runtime.GOMAXPROCS(p)
		pos, vel := run()
		runtime.GOMAXPROCS(old)
		if li == 0 {
			refPos, refVel = pos, vel
			continue
		}
		for i := range refPos {
			if pos[i] != refPos[i] || vel[i] != refVel[i] {
				t.Fatalf("GOMAXPROCS=%d: atom %d: pos %v vel %v, serial %v %v", p, i, pos[i], vel[i], refPos[i], refVel[i])
			}
		}
	}
}

// TestNVELongRegression integrates a TIP3P box for 1000 steps (1 ps) and
// bounds the total-energy drift, the long-horizon analogue of paper
// Fig. 4. Gated behind -short because it costs a few seconds.
func TestNVELongRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-step NVE run skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("1000-step NVE run is too slow under -race")
	}
	box := water.CubicBoxFor(64)
	sys := water.Build(4, 4, 4, box, 42)
	water.Equilibrate(sys, 100, 0.001, 300, 0.7, 7)
	rc := 0.7
	alpha := spme.AlphaFromRTol(rc, 1e-4)
	mesh := core.New(core.Params{
		Alpha: alpha, Rc: rc, Order: 6,
		N: [3]int{16, 16, 16}, Levels: 1, M: 3, Gc: 8,
	}, sys.Box)
	integ := &md.Integrator{
		FF: &md.ForceField{Alpha: alpha, Rc: rc, Skin: 0.1, Mesh: mesh},
		Dt: 0.001,
	}
	var e0, eMin, eMax, ke float64
	for s := 0; s < 1000; s++ {
		e := integ.Step(sys)
		tot := e.Total()
		if math.IsNaN(tot) {
			t.Fatalf("energy NaN at step %d", s)
		}
		if s == 0 {
			e0, eMin, eMax, ke = tot, tot, tot, e.Kinetic
		}
		eMin = math.Min(eMin, tot)
		eMax = math.Max(eMax, tot)
	}
	spread := eMax - eMin
	t.Logf("E0=%.3f kJ/mol, spread over 1 ps: %.3f kJ/mol (%.2f%% of KE %.1f)",
		e0, spread, 100*spread/ke, ke)
	// Velocity Verlet with rigid water at 1 fs: bounded oscillation, no
	// systematic drift. 5% of the kinetic energy is ~25x the observed
	// spread, so a regression that introduces drift trips this long
	// before it would corrupt an observable.
	if spread > 0.05*ke {
		t.Errorf("total-energy spread %.3f kJ/mol exceeds 5%% of KE (%.1f)", spread, ke)
	}
}

// TestStepSteadyStateAllocs: after warmup an Integrator.Step allocates
// nothing at one, two or four workers — with no mesh over a buffered
// Verlet list or a skin-0 one rebuilt every step, and with a full SPME or
// TME mesh.
func TestStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, tc := range []struct {
		name string
		skin float64
		mesh string
	}{
		{"verlet-no-mesh", 0.1, ""},
		{"skin0-no-mesh", 0, ""},
		{"verlet+spme", 0.1, "spme"},
		{"skin0+tme", 0, "tme"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			box := water.CubicBoxFor(64)
			sys := water.Build(4, 4, 4, box, 42)
			water.Equilibrate(sys, 20, 0.001, 300, 0.7, 7)
			rc := 0.7
			alpha := spme.AlphaFromRTol(rc, 1e-4)
			ff := &md.ForceField{Alpha: alpha, Rc: rc, Skin: tc.skin}
			switch tc.mesh {
			case "spme":
				ff.Mesh = spme.New(spme.Params{Alpha: alpha, Rc: rc, Order: 6, N: [3]int{16, 16, 16}}, sys.Box)
			case "tme":
				ff.Mesh = core.New(core.Params{
					Alpha: alpha, Rc: rc, Order: 6,
					N: [3]int{16, 16, 16}, Levels: 1, M: 3, Gc: 8,
				}, sys.Box)
			}
			integ := &md.Integrator{FF: ff, Dt: 0.001}
			for _, procs := range []int{1, 2, 4} {
				if a := partest.AllocsPerRun(procs, 50, func() { integ.Step(sys) }); a != 0 {
					t.Errorf("GOMAXPROCS=%d: Step allocates %.1f per run, want 0", procs, a)
				}
			}
		})
	}
}
