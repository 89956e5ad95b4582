package bonded

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/vec"
)

func fdCheck(t *testing.T, ff *FF, box vec.Box, pos []vec.V, tol float64) {
	t.Helper()
	f := make([]vec.V, len(pos))
	ff.Compute(box, pos, f)
	const h = 1e-7
	for i := range pos {
		for axis := 0; axis < 3; axis++ {
			p0 := pos[i]
			pos[i][axis] = p0[axis] + h
			ep := ff.Compute(box, pos, nil)
			pos[i][axis] = p0[axis] - h
			em := ff.Compute(box, pos, nil)
			pos[i] = p0
			fd := -(ep - em) / (2 * h)
			if math.Abs(f[i][axis]-fd) > tol*math.Max(1, math.Abs(fd)) {
				t.Errorf("atom %d axis %d: F=%.8f fd=%.8f", i, axis, f[i][axis], fd)
			}
		}
	}
}

func TestBondEnergyAndForce(t *testing.T) {
	box := vec.Cubic(10)
	ff := &FF{Bonds: []Bond{{I: 0, J: 1, R0: 0.15, K: 1000}}}
	pos := []vec.V{{1, 1, 1}, {1.25, 1, 1}} // stretched by 0.1
	e := ff.Compute(box, pos, nil)
	want := 0.5 * 1000 * 0.1 * 0.1
	if math.Abs(e-want) > 1e-12 {
		t.Errorf("bond energy %g, want %g", e, want)
	}
	fdCheck(t, ff, box, pos, 1e-5)
}

func TestBondAtEquilibriumHasNoForce(t *testing.T) {
	box := vec.Cubic(10)
	ff := &FF{Bonds: []Bond{{I: 0, J: 1, R0: 0.2, K: 500}}}
	pos := []vec.V{{1, 1, 1}, {1.2, 1, 1}}
	f := make([]vec.V, 2)
	if e := ff.Compute(box, pos, f); e > 1e-20 {
		t.Errorf("equilibrium energy %g", e)
	}
	if f[0].Norm() > 1e-12 || f[1].Norm() > 1e-12 {
		t.Errorf("equilibrium forces %v %v", f[0], f[1])
	}
}

func TestBondAcrossPeriodicBoundary(t *testing.T) {
	box := vec.Cubic(2)
	ff := &FF{Bonds: []Bond{{I: 0, J: 1, R0: 0.2, K: 500}}}
	// Atoms separated by 0.2 through the boundary.
	pos := []vec.V{{0.05, 1, 1}, {1.85, 1, 1}}
	if e := ff.Compute(box, pos, nil); e > 1e-20 {
		t.Errorf("periodic bond energy %g, want 0", e)
	}
}

func TestAngleEnergyAndForce(t *testing.T) {
	box := vec.Cubic(10)
	ff := &FF{Angles: []Angle{{I: 0, J: 1, K: 2, Theta0: math.Pi / 2, KTheta: 100}}}
	// 120° angle at apex atom 1.
	pos := []vec.V{
		{1 + math.Cos(2*math.Pi/3), 1 + math.Sin(2*math.Pi/3), 1},
		{1, 1, 1},
		{2, 1, 1},
	}
	e := ff.Compute(box, pos, nil)
	dth := 2*math.Pi/3 - math.Pi/2
	if want := 0.5 * 100 * dth * dth; math.Abs(e-want) > 1e-10 {
		t.Errorf("angle energy %g, want %g", e, want)
	}
	fdCheck(t, ff, box, pos, 1e-5)
}

func TestAngleForceIsTorqueFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(10)
	ff := &FF{Angles: []Angle{{I: 0, J: 1, K: 2, Theta0: 1.9, KTheta: 250}}}
	for trial := 0; trial < 20; trial++ {
		pos := []vec.V{
			{4 + rng.NormFloat64()*0.2, 4, 4},
			{4, 4 + rng.NormFloat64()*0.2, 4},
			{4, 4, 4 + rng.NormFloat64()*0.2},
		}
		f := make([]vec.V, 3)
		ff.Compute(box, pos, f)
		var net, torque vec.V
		for i := range f {
			net = net.Add(f[i])
			torque = torque.Add(pos[i].Cross(f[i]))
		}
		if net.Norm() > 1e-9 {
			t.Fatalf("net force %v", net)
		}
		if torque.Norm() > 1e-9 {
			t.Fatalf("net torque %v", torque)
		}
	}
}

func TestDihedralEnergyPeriodicity(t *testing.T) {
	box := vec.Cubic(10)
	mk := func(phi float64) []vec.V {
		// Build a chain with dihedral angle φ.
		return []vec.V{
			{1, 1 + math.Cos(phi), 1 + math.Sin(phi)},
			{1, 1, 1},
			{2, 1, 1},
			{2, 2, 1},
		}
	}
	ff := &FF{Dihedrals: []Dihedral{{I: 0, J: 1, K: 2, L: 3, Phase: 0, KPhi: 10, Mult: 3}}}
	// Threefold term: energy repeats every 2π/3.
	for _, phi := range []float64{0.3, 1.1, 2.0} {
		e1 := ff.Compute(box, mk(phi), nil)
		e2 := ff.Compute(box, mk(phi+2*math.Pi/3), nil)
		if math.Abs(e1-e2) > 1e-9 {
			t.Errorf("phi=%g: threefold periodicity violated: %g vs %g", phi, e1, e2)
		}
	}
}

func TestDihedralForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box := vec.Cubic(10)
	ff := &FF{Dihedrals: []Dihedral{{I: 0, J: 1, K: 2, L: 3, Phase: 0.7, KPhi: 25, Mult: 2}}}
	for trial := 0; trial < 10; trial++ {
		pos := []vec.V{
			{1 + 0.1*rng.NormFloat64(), 1.5 + 0.1*rng.NormFloat64(), 1 + 0.1*rng.NormFloat64()},
			{1, 1, 1},
			{2, 1, 1},
			{2.2, 1.8, 1 + 0.3*rng.NormFloat64()},
		}
		fdCheck(t, ff, box, pos, 1e-4)
	}
}

func TestDihedralForceConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := vec.Cubic(10)
	ff := &FF{Dihedrals: []Dihedral{{I: 0, J: 1, K: 2, L: 3, Phase: 0, KPhi: 12, Mult: 1}}}
	for trial := 0; trial < 10; trial++ {
		pos := []vec.V{
			{1 + 0.2*rng.NormFloat64(), 1.4, 0.9},
			{1.1, 1, 1},
			{2, 1.1, 1},
			{2.3, 1.9, 1.2 + 0.2*rng.NormFloat64()},
		}
		f := make([]vec.V, 4)
		ff.Compute(box, pos, f)
		var net, torque vec.V
		for i := range f {
			net = net.Add(f[i])
			torque = torque.Add(pos[i].Cross(f[i]))
		}
		if net.Norm() > 1e-9 {
			t.Fatalf("net dihedral force %v", net)
		}
		if torque.Norm() > 1e-8 {
			t.Fatalf("net dihedral torque %v", torque)
		}
	}
}

func TestNilFF(t *testing.T) {
	var ff *FF
	if ff.Compute(vec.Cubic(1), nil, nil) != 0 {
		t.Error("nil FF should contribute zero energy")
	}
}
