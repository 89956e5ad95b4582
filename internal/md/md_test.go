package md_test

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/core"
	"tme4a/internal/md"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// smallWaterSystem builds and lightly equilibrates a 125-molecule box.
func smallWaterSystem(t testing.TB) *md.System {
	box := water.CubicBoxFor(125)
	sys := water.Build(5, 5, 5, box, 42)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	water.Equilibrate(sys, 100, 0.001, 300, 0.7, 7)
	return sys
}

func TestInitVelocitiesTemperature(t *testing.T) {
	box := water.CubicBoxFor(216)
	sys := water.Build(6, 6, 6, box, 1)
	sys.InitVelocities(300, rand.New(rand.NewSource(2)))
	if temp := sys.Temperature(); math.Abs(temp-300) > 1 {
		t.Errorf("initialised temperature %.2f K, want 300 K", temp)
	}
	// COM momentum removed.
	var p vec.V
	for i, v := range sys.Vel {
		p = p.Add(v.Scale(sys.Mass[i]))
	}
	if p.Norm() > 1e-8 {
		t.Errorf("net momentum %v", p)
	}
}

func TestDegreesOfFreedomWithConstraints(t *testing.T) {
	box := water.CubicBoxFor(8)
	sys := water.Build(2, 2, 2, box, 1)
	// 3 constraints per rigid water: 3N − 3·Nmol − 3 COM.
	want := 3*24 - 3*8 - 3
	if got := sys.DegreesOfFreedom(); got != want {
		t.Errorf("DoF %d, want %d", got, want)
	}
}

// TestNVEEnergyConservation is the integrator-level analogue of paper
// Fig. 4: velocity Verlet + SETTLE + TME electrostatics must show no
// energy drift.
func TestNVEEnergyConservation(t *testing.T) {
	sys := smallWaterSystem(t)
	rc := 0.7
	alpha := spme.AlphaFromRTol(rc, 1e-4)
	mesh := core.New(core.Params{
		Alpha: alpha, Rc: rc, Order: 6,
		N: [3]int{16, 16, 16}, Levels: 1, M: 3, Gc: 8,
	}, sys.Box)
	integ := &md.Integrator{
		FF: &md.ForceField{Alpha: alpha, Rc: rc, Mesh: mesh},
		Dt: 0.001,
	}
	var e0, eMin, eMax float64
	var ke float64
	for s := 0; s < 200; s++ {
		e := integ.Step(sys)
		tot := e.Total()
		if s == 0 {
			e0, eMin, eMax = tot, tot, tot
			ke = e.Kinetic
		}
		eMin = math.Min(eMin, tot)
		eMax = math.Max(eMax, tot)
		if math.IsNaN(tot) {
			t.Fatalf("energy NaN at step %d", s)
		}
	}
	spread := eMax - eMin
	t.Logf("E0=%.3f kJ/mol, spread %.3f kJ/mol, KE=%.1f kJ/mol", e0, spread, ke)
	// Velocity Verlet at 1 fs with rigid water: total-energy excursions
	// should stay a small fraction of the kinetic energy over 200 fs.
	if spread > 0.05*ke {
		t.Errorf("energy spread %.3f kJ/mol exceeds 5%% of KE (%.1f)", spread, ke)
	}
}

// TestNVEConservesMomentum: the composed force field obeys Newton's third
// law, so total momentum stays zero through a trajectory.
func TestNVEConservesMomentum(t *testing.T) {
	sys := smallWaterSystem(t)
	rc := 0.7
	alpha := spme.AlphaFromRTol(rc, 1e-4)
	sp := spme.New(spme.Params{Alpha: alpha, Rc: rc, Order: 6, N: [3]int{16, 16, 16}}, sys.Box)
	integ := &md.Integrator{FF: &md.ForceField{Alpha: alpha, Rc: rc, Mesh: sp}, Dt: 0.001}
	integ.Run(sys, 50, nil)
	var p vec.V
	for i, v := range sys.Vel {
		p = p.Add(v.Scale(sys.Mass[i]))
	}
	// Mesh forces carry a small net-force residual (B-spline interpolation
	// does not enforce Σ F = 0 exactly — the classic PME artifact that MD
	// codes counter by removing COM motion). The random-walk accumulation
	// over 50 steps must stay far below the thermal momentum scale
	// (~7 amu·nm/ps per atom).
	if p.Norm() > 0.3 {
		t.Errorf("net momentum %v after 50 steps", p)
	}
}

// TestSettleHoldsThroughTrajectory: rigid geometry maintained to high
// precision over many steps.
func TestSettleHoldsThroughTrajectory(t *testing.T) {
	sys := smallWaterSystem(t)
	rc := 0.7
	alpha := spme.AlphaFromRTol(rc, 1e-4)
	integ := &md.Integrator{FF: &md.ForceField{Alpha: alpha, Rc: rc}, Dt: 0.001}
	integ.Run(sys, 100, nil)
	w := sys.WaterModel
	for wi, trip := range sys.RigidWaters {
		oh1 := sys.Pos[trip[0]].Sub(sys.Pos[trip[1]]).Norm()
		oh2 := sys.Pos[trip[0]].Sub(sys.Pos[trip[2]]).Norm()
		hh := sys.Pos[trip[1]].Sub(sys.Pos[trip[2]]).Norm()
		if math.Abs(oh1-w.ROH) > 1e-7 || math.Abs(oh2-w.ROH) > 1e-7 || math.Abs(hh-2*w.ROH*math.Sin(w.Theta/2)) > 1e-7 {
			t.Fatalf("water %d geometry drifted: %g %g %g", wi, oh1, oh2, hh)
		}
	}
}

func TestThermostatDrivesTemperature(t *testing.T) {
	sys := smallWaterSystem(t)
	sys.InitVelocities(150, rand.New(rand.NewSource(3)))
	rc := 0.7
	alpha := spme.AlphaFromRTol(rc, 1e-4)
	integ := &md.Integrator{
		FF:         &md.ForceField{Alpha: alpha, Rc: rc},
		Dt:         0.001,
		Thermostat: &md.Thermostat{T: 300, Tau: 0.02},
	}
	integ.Run(sys, 150, nil)
	if temp := sys.Temperature(); math.Abs(temp-300) > 45 {
		t.Errorf("temperature %.1f K after thermostatting to 300 K", temp)
	}
}

func TestWaterBuildProperties(t *testing.T) {
	box := water.CubicBoxFor(64)
	sys := water.Build(4, 4, 4, box, 9)
	if sys.N() != 192 {
		t.Fatalf("atom count %d", sys.N())
	}
	// Neutrality.
	var qt float64
	for _, q := range sys.Q {
		qt += q
	}
	if math.Abs(qt) > 1e-10 {
		t.Errorf("net charge %g", qt)
	}
	// All O–H distances start at the rigid geometry.
	w := sys.WaterModel
	for _, trip := range sys.RigidWaters {
		if d := sys.Pos[trip[0]].Sub(sys.Pos[trip[1]]).Norm(); math.Abs(d-w.ROH) > 1e-12 {
			t.Fatalf("initial O-H distance %g", d)
		}
	}
	// No catastrophic intermolecular contacts.
	minD := math.Inf(1)
	for i := 0; i < sys.N(); i++ {
		for j := i + 1; j < sys.N(); j++ {
			if sys.Excl.Excluded(i, j) {
				continue
			}
			if d := sys.Box.MinImage(sys.Pos[i].Sub(sys.Pos[j])).Norm(); d < minD {
				minD = d
			}
		}
	}
	if minD < 0.11 {
		t.Errorf("closest intermolecular contact %.3f nm", minD)
	}
}

func TestEnergiesBreakdown(t *testing.T) {
	var e md.Energies
	e.CoulShort, e.CoulLong, e.CoulExcl, e.LJ, e.Bonded, e.Kinetic = 1, 2, 3, 4, 5, 6
	if e.Potential() != 15 {
		t.Errorf("Potential() = %g", e.Potential())
	}
	if e.Total() != 21 {
		t.Errorf("Total() = %g", e.Total())
	}
}

func BenchmarkMDStepWater125(b *testing.B) {
	sys := smallWaterSystem(b)
	rc := 0.7
	alpha := spme.AlphaFromRTol(rc, 1e-4)
	mesh := core.New(core.Params{
		Alpha: alpha, Rc: rc, Order: 6,
		N: [3]int{16, 16, 16}, Levels: 1, M: 4, Gc: 8,
	}, sys.Box)
	integ := &md.Integrator{FF: &md.ForceField{Alpha: alpha, Rc: rc, Mesh: mesh}, Dt: 0.001}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		integ.Step(sys)
	}
}
