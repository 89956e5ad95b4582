package msm

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/core"
	"tme4a/internal/ewald"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
)

func neutralRandomSystem(rng *rand.Rand, n int, box vec.Box) ([]vec.V, []float64) {
	pos := make([]vec.V, n)
	q := make([]float64, n)
	var qt float64
	for i := range pos {
		pos[i] = vec.V{rng.Float64() * box.L[0], rng.Float64() * box.L[1], rng.Float64() * box.L[2]}
		q[i] = rng.NormFloat64()
		qt += q[i]
	}
	for i := range q {
		q[i] -= qt / float64(n)
	}
	return pos, q
}

func relForceError(f, ref []vec.V) float64 {
	var num, den float64
	for i := range f {
		num += f[i].Sub(ref[i]).Norm2()
		den += ref[i].Norm2()
	}
	return math.Sqrt(num / den)
}

func params(rc float64, gc int) Params {
	return Params{
		Alpha:  spme.AlphaFromRTol(rc, 1e-4),
		Rc:     rc,
		Order:  6,
		N:      [3]int{16, 16, 16},
		Levels: 1,
		Gc:     gc,
	}
}

func TestMSMMatchesEwaldReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 64, box)
	_, fRef := ewald.Reference(box, pos, q, nil, 1e-12)
	s := New(params(1.2, 8), box)
	f := make([]vec.V, len(pos))
	s.Coulomb(pos, q, nil, f)
	err := relForceError(f, fRef)
	t.Logf("MSM gc=8 relative force error: %.3e", err)
	if err > 3e-3 {
		t.Errorf("relative force error %g, want < 3e-3", err)
	}
}

// TestMSMIsTMELimitOfManyGaussians: the TME error converges toward the MSM
// error from above as M grows, because MSM uses the exact shell kernel the
// Gaussians approximate.
func TestMSMIsTMELimitOfManyGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 96, box)
	_, fRef := ewald.Reference(box, pos, q, nil, 1e-12)

	s := New(params(1.2, 8), box)
	fm := make([]vec.V, len(pos))
	s.Coulomb(pos, q, nil, fm)
	errMSM := relForceError(fm, fRef)

	tme := core.New(core.Params{
		Alpha: s.Prm.Alpha, Rc: s.Prm.Rc, Order: 6,
		N: s.Prm.N, Levels: 1, M: 8, Gc: 8,
	}, box)
	ft := make([]vec.V, len(pos))
	tme.Coulomb(pos, q, nil, ft)
	errTME := relForceError(ft, fRef)

	t.Logf("MSM err=%.3e, TME(M=8) err=%.3e", errMSM, errTME)
	if errTME > 1.25*errMSM {
		t.Errorf("TME with many Gaussians (%g) should approach MSM accuracy (%g)", errTME, errMSM)
	}
}

// TestMSMAndTMEGridPotentialsAgree compares the mesh potentials directly:
// with many Gaussians the separable TME convolution must reproduce the
// direct 3D MSM convolution (tensor decomposition of the same kernel).
func TestMSMAndTMEGridPotentialsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 40, box)
	s := New(params(1.2, 8), box)
	tme := core.New(core.Params{
		Alpha: s.Prm.Alpha, Rc: s.Prm.Rc, Order: 6,
		N: s.Prm.N, Levels: 1, M: 10, Gc: 8,
	}, box)
	pm := s.MeshPotential(pos, q)
	pt := tme.MeshPotential(pos, q)
	var maxAbs, maxDiff float64
	for i := range pm.Data {
		if a := math.Abs(pm.Data[i]); a > maxAbs {
			maxAbs = a
		}
		if d := math.Abs(pm.Data[i] - pt.Data[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-3*maxAbs {
		t.Errorf("mesh potentials differ: max |Δ| = %g vs scale %g", maxDiff, maxAbs)
	}
}

func TestMSMForceGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 10, box)
	s := New(params(1.2, 6), box)
	f := make([]vec.V, len(pos))
	s.LongRange(pos, q, f)
	const h = 2e-6
	for _, i := range []int{0, 9} {
		for axis := 0; axis < 3; axis++ {
			p0 := pos[i]
			pos[i][axis] = p0[axis] + h
			ep := s.LongRange(pos, q, nil)
			pos[i][axis] = p0[axis] - h
			em := s.LongRange(pos, q, nil)
			pos[i] = p0
			fd := -(ep - em) / (2 * h)
			if math.Abs(f[i][axis]-fd) > 1e-4*math.Max(1, math.Abs(fd)) {
				t.Errorf("atom %d axis %d: F %.8f vs −dE/dx %.8f", i, axis, f[i][axis], fd)
			}
		}
	}
}

func BenchmarkMSMLongRange(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 1000, box)
	s := New(params(1.2, 8), box)
	f := make([]vec.V, len(pos))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LongRange(pos, q, f)
	}
}
