package core

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/ewald"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// TestAnisotropicBoxAndGrid: the paper's benchmark box is rectangular
// (9.7 × 8.3 × 10.6 nm); the per-axis kernels K^{ν,j} must handle
// different grid spacings h_j.
func TestAnisotropicBoxAndGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	box := vec.NewBox(4.0, 3.0, 5.0)
	n := 48
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
	_, fRef := ewald.Reference(box, pos, q, nil, 1e-12)
	s := New(Params{
		Alpha: spme.AlphaFromRTol(1.2, 1e-4), Rc: 1.2, Order: 6,
		N: [3]int{16, 16, 32}, Levels: 1, M: 4, Gc: 8,
	}, box)
	f := make([]vec.V, n)
	s.Coulomb(pos, q, nil, f)
	if err := relForceError(f, fRef); err > 5e-3 {
		t.Errorf("anisotropic relative force error %g", err)
	}
}

// TestOrder4Spline: the method is defined for any even order; p = 4 is
// the other common choice (the hardware fixes p = 6, the software layer
// does not).
func TestOrder4Spline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 48, box)
	_, fRef := ewald.Reference(box, pos, q, nil, 1e-12)
	s := New(Params{
		Alpha: spme.AlphaFromRTol(1.2, 1e-4), Rc: 1.2, Order: 4,
		N: [3]int{16, 16, 16}, Levels: 1, M: 4, Gc: 8,
	}, box)
	f := make([]vec.V, len(pos))
	s.Coulomb(pos, q, nil, f)
	err := relForceError(f, fRef)
	t.Logf("p=4 relative force error %.3e", err)
	// p = 4 on the same grid is substantially less accurate than p = 6 but
	// must still be a working method.
	if err > 3e-2 {
		t.Errorf("p=4 relative force error %g", err)
	}
}

// TestGcTruncationTrend reproduces the Table 1 g_c observation: at the
// largest cutoff (smallest α, widest Gaussians) g_c = 4 is insufficient
// while g_c = 8 and 12 agree.
func TestGcTruncationTrend(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 96, box)
	_, fRef := ewald.Reference(box, pos, q, nil, 1e-12)
	errAt := func(gc int) float64 {
		s := New(Params{
			Alpha: spme.AlphaFromRTol(1.5, 1e-4), Rc: 1.5, Order: 6,
			N: [3]int{16, 16, 16}, Levels: 1, M: 4, Gc: gc,
		}, box)
		f := make([]vec.V, len(pos))
		s.Coulomb(pos, q, nil, f)
		return relForceError(f, fRef)
	}
	e4, e8, e12 := errAt(4), errAt(8), errAt(12)
	t.Logf("rc=1.5: gc=4 %.3e, gc=8 %.3e, gc=12 %.3e", e4, e8, e12)
	if e4 <= 1.5*e8 {
		t.Errorf("gc=4 (%g) should be clearly worse than gc=8 (%g) at rc=1.5", e4, e8)
	}
	if math.Abs(e8-e12) > 0.3*e8 {
		t.Errorf("gc=8 (%g) and gc=12 (%g) should agree", e8, e12)
	}
}

// TestEnergyOffsetShrinksWithM is the Fig. 4 offset mechanism at the
// force-field level: the M = 1 mesh energy is offset from the converged
// value, and the offset shrinks rapidly with M.
func TestEnergyOffsetShrinksWithM(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 96, box)
	energies := map[int]float64{}
	for _, m := range []int{1, 2, 3, 8} {
		s := New(paperLikeParams(1.25, m, 8, 1), box)
		energies[m] = s.LongRange(pos, q, nil)
	}
	ref := energies[8]
	off1 := math.Abs(energies[1] - ref)
	off2 := math.Abs(energies[2] - ref)
	off3 := math.Abs(energies[3] - ref)
	t.Logf("offsets vs M=8: M1 %.3f, M2 %.4f, M3 %.5f kJ/mol", off1, off2, off3)
	if !(off1 > off2 && off2 > off3) {
		t.Errorf("energy offset not shrinking with M: %g %g %g", off1, off2, off3)
	}
	if off1 == 0 {
		t.Error("M=1 offset unexpectedly zero")
	}
}

// TestSolverAccessors covers the read-only accessors the hardware pipeline
// depends on.
func TestSolverAccessors(t *testing.T) {
	box := vec.Cubic(4)
	s := New(paperLikeParams(1.2, 3, 8, 1), box)
	if got := len(s.Kernels()); got != 3 {
		t.Errorf("Kernels() returned %d Gaussians, want 3", got)
	}
	for _, kv := range s.Kernels() {
		for axis := 0; axis < 3; axis++ {
			if len(kv[axis]) != 2*8+1 {
				t.Fatalf("kernel length %d, want 17", len(kv[axis]))
			}
		}
	}
	if got := len(s.TwoScale()); got != 7 {
		t.Errorf("TwoScale() length %d, want 7", got)
	}
	if s.TopSolver() == nil {
		t.Error("TopSolver() nil")
	}
	if s.TopSolver().Prm.N != [3]int{8, 8, 8} {
		t.Errorf("top grid %v, want 8³", s.TopSolver().Prm.N)
	}
}

// TestInvalidParamsPanic documents the constructor contract.
func TestInvalidParamsPanic(t *testing.T) {
	box := vec.Cubic(4)
	cases := []Params{
		{Alpha: 2, Rc: 1, Order: 6, N: [3]int{16, 16, 16}, Levels: 0, M: 4, Gc: 8}, // no levels
		{Alpha: 2, Rc: 1, Order: 6, N: [3]int{16, 16, 16}, Levels: 1, M: 0, Gc: 8}, // no Gaussians
		{Alpha: 2, Rc: 1, Order: 5, N: [3]int{16, 16, 16}, Levels: 1, M: 4, Gc: 8}, // odd order
		{Alpha: 2, Rc: 1, Order: 6, N: [3]int{18, 18, 18}, Levels: 1, M: 4, Gc: 8}, // not divisible
	}
	for i, prm := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New(prm, box)
		}()
	}
}

// TestKernelsExactlyEven: every level-convolution kernel New builds at the
// Table-1 operating points — the quick (16³) and paper-scale (32³) water
// boxes, the rc, g_c and M sweeps, both kernel families — is exactly even,
// kernel[g_c−m] == kernel[g_c+m] bit for bit, as the mirrored-tap
// convolutions of internal/grid require. It also makes each level operator
// exactly self-adjoint.
func TestKernelsExactlyEven(t *testing.T) {
	for _, side := range []int{16, 32} {
		box := water.CubicBoxFor(side * side * side)
		for _, rc := range []float64{1.0, 1.25, 1.5} {
			alpha := spme.AlphaFromRTol(rc, 1e-4)
			for _, gc := range []int{4, 8, 12} {
				for m := 1; m <= 4; m++ {
					for _, fam := range []KernelFamily{KernelGauss, KernelUSeries} {
						s := New(Params{Alpha: alpha, Rc: rc, Order: 6, N: [3]int{side, side, side},
							Levels: 1, M: m, Gc: gc, Kernel: fam}, box)
						kernels := append([][]float64(nil), s.LevelZKernels()[0]...)
						for _, k := range s.Kernels() {
							kernels = append(kernels, k[:]...)
						}
						for _, k := range kernels {
							for e := 0; e < gc; e++ {
								if math.Float64bits(k[e]) != math.Float64bits(k[2*gc-e]) {
									t.Fatalf("side %d rc %g gc %d M %d %s: kernel[%d] %.17g, mirror %.17g",
										side, rc, gc, m, fam, e, k[e], k[2*gc-e])
								}
							}
						}
					}
				}
			}
		}
	}
}
