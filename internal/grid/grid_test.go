package grid

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/bspline"
)

func randGrid(rng *rand.Rand, nx, ny, nz int) *G {
	g := New(nx, ny, nz)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	return g
}

// wrapAt returns g's value at (ix, iy, iz), wrapped periodically.
func wrapAt(g *G, ix, iy, iz int) float64 {
	return g.Data[wrap(ix, g.N[0])+g.N[0]*(wrap(iy, g.N[1])+g.N[1]*wrap(iz, g.N[2]))]
}

// restrict runs RestrictInto onto a fresh grid.
func restrict(src *G, J []float64) *G {
	dst := New(src.N[0]/2, src.N[1]/2, src.N[2]/2)
	RestrictInto(dst, src, J, NewPool())
	return dst
}

// prolong runs ProlongInto onto a fresh grid.
func prolong(src *G, J []float64) *G {
	dst := New(2*src.N[0], 2*src.N[1], 2*src.N[2])
	ProlongInto(dst, src, J, NewPool())
	return dst
}

// sum returns the sum over all points of g.
func sum(g *G) float64 {
	var s float64
	for _, v := range g.Data {
		s += v
	}
	return s
}

func naiveConvAxis(src *G, axis int, kernel []float64) *G {
	gc := len(kernel) / 2
	dst := New(src.N[0], src.N[1], src.N[2])
	for iz := 0; iz < src.N[2]; iz++ {
		for iy := 0; iy < src.N[1]; iy++ {
			for ix := 0; ix < src.N[0]; ix++ {
				var s float64
				for m := -gc; m <= gc; m++ {
					var v float64
					switch axis {
					case 0:
						v = wrapAt(src, ix-m, iy, iz)
					case 1:
						v = wrapAt(src, ix, iy-m, iz)
					default:
						v = wrapAt(src, ix, iy, iz-m)
					}
					s += kernel[m+gc] * v
				}
				dst.Data[ix+dst.N[0]*(iy+dst.N[1]*iz)] = s
			}
		}
	}
	return dst
}

func TestConvAxisMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := randGrid(rng, 8, 6, 4)
	kernel := []float64{0.2, -0.4, 1.0, -0.4, 0.2}
	for axis := 0; axis < 3; axis++ {
		want := naiveConvAxis(src, axis, kernel)
		got := New(8, 6, 4)
		ConvAxis(got, src, axis, kernel)
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
				t.Fatalf("axis %d index %d: got %g want %g", axis, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestConvAxisKernelLongerThanGrid(t *testing.T) {
	// Periodic wrap must be correct even when the kernel reach exceeds the
	// grid size (small top-level TME grids with g_c = 8).
	rng := rand.New(rand.NewSource(2))
	src := randGrid(rng, 4, 4, 4)
	kernel := randKernel(rng, 6)
	want := naiveConvAxis(src, 0, kernel)
	got := New(4, 4, 4)
	ConvAxis(got, src, 0, kernel)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("index %d: got %g want %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestConvAxisRejectsUnevenKernel: the convolutions pair mirrored taps, so
// a kernel whose mirrored entries differ — here by one ulp — is refused
// rather than read by its left half.
func TestConvAxisRejectsUnevenKernel(t *testing.T) {
	src := New(8, 8, 8)
	kernel := []float64{0.2, -0.4, 1.0, math.Nextafter(-0.4, 0), 0.2}
	for axis := 0; axis < 3; axis++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("axis %d: ConvAxis accepted an uneven kernel", axis)
				}
			}()
			ConvAxis(New(8, 8, 8), src, axis, kernel)
		}()
	}
}

// TestSeparableEqualsDirect verifies the tensor-structure identity at the
// heart of the TME: a separable 3D kernel applied axis-wise equals the
// direct 3D convolution with the outer-product kernel.
func TestSeparableEqualsDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randGrid(rng, 8, 8, 8)
	gc := 2
	k := 2*gc + 1
	kx, ky, kz := randKernel(rng, gc), randKernel(rng, gc), randKernel(rng, gc)
	k3 := make([]float64, k*k*k)
	for mz := 0; mz < k; mz++ {
		for my := 0; my < k; my++ {
			for mx := 0; mx < k; mx++ {
				k3[mx+k*(my+k*mz)] = kx[mx] * ky[my] * kz[mz]
			}
		}
	}
	sep := ConvSeparable(src, kx, ky, kz)
	dir := ConvDirect3D(src, k3, gc)
	for i := range sep.Data {
		if math.Abs(sep.Data[i]-dir.Data[i]) > 1e-10 {
			t.Fatalf("index %d: separable %g direct %g", i, sep.Data[i], dir.Data[i])
		}
	}
}

func TestConvIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := randGrid(rng, 4, 8, 16)
	id := []float64{0, 0, 1, 0, 0}
	got := ConvSeparable(src, id, id, id)
	for i := range src.Data {
		if math.Abs(got.Data[i]-src.Data[i]) > 1e-14 {
			t.Fatalf("identity convolution altered data at %d", i)
		}
	}
}

func TestRestrictProlongAdjoint(t *testing.T) {
	// ⟨Restrict(q), φ⟩ == ⟨q, Prolong(φ)⟩ for the two-scale operators.
	rng := rand.New(rand.NewSource(5))
	J := bspline.TwoScale(6)
	q := randGrid(rng, 8, 8, 8)
	phi := randGrid(rng, 4, 4, 4)
	rq := restrict(q, J)
	pphi := prolong(phi, J)
	var lhs, rhs float64
	for i := range rq.Data {
		lhs += rq.Data[i] * phi.Data[i]
	}
	for i := range q.Data {
		rhs += q.Data[i] * pphi.Data[i]
	}
	if math.Abs(lhs-rhs) > 1e-10*math.Abs(lhs) {
		t.Errorf("adjoint violated: %g vs %g", lhs, rhs)
	}
}

func TestRestrictConservesTotalWeightedCharge(t *testing.T) {
	// ΣJ = 2 per axis, so total grid charge is multiplied by 2³/2³... each
	// axis restriction halves the point count but ΣJ=2 doubles weight per
	// remaining point: the total sum is preserved exactly... verify the
	// actual invariant: Sum(Restrict(q)) = Sum(q).
	rng := rand.New(rand.NewSource(6))
	J := bspline.TwoScale(6)
	q := randGrid(rng, 16, 8, 8)
	r := restrict(q, J)
	if r.N != [3]int{8, 4, 4} {
		t.Fatalf("restricted shape %v", r.N)
	}
	if math.Abs(sum(r)-sum(q)) > 1e-9*math.Max(1, math.Abs(sum(q))) {
		t.Errorf("restriction changed total charge: %g vs %g", sum(r), sum(q))
	}
}

func TestProlongShape(t *testing.T) {
	J := bspline.TwoScale(4)
	src := New(4, 8, 4)
	dst := prolong(src, J)
	if dst.N != [3]int{8, 16, 8} {
		t.Errorf("prolonged shape %v", dst.N)
	}
}

// TestWrapIndexing: wrap maps an index on either side of [0, n) onto it
// periodically.
func TestWrapIndexing(t *testing.T) {
	for _, c := range []struct{ i, n, want int }{
		{-1, 4, 3}, {-5, 4, 3}, {0, 4, 0}, {3, 4, 3}, {4, 4, 0}, {6, 4, 2}, {9, 4, 1},
	} {
		if got := wrap(c.i, c.n); got != c.want {
			t.Errorf("wrap(%d, %d) = %d, want %d", c.i, c.n, got, c.want)
		}
	}
}

func BenchmarkConvSeparable32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := randGrid(rng, 32, 32, 32)
	k := randKernel(rng, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvSeparable(src, k, k, k)
	}
}

// BenchmarkConvSeparableAccum32 times one TME level convolution in the
// allocation-free form core.Solver calls: M = 3 Gaussians of g_c = 8 summed
// into one 32³ grid, 3·3·17 taps per point.
func BenchmarkConvSeparableAccum32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := randGrid(rng, 32, 32, 32)
	k := randKernel(rng, 8)
	dst, t1, t2 := New(32, 32, 32), New(32, 32, 32), New(32, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < 3; v++ {
			ConvSeparableAccum(dst, src, k, k, k, t1, t2)
		}
	}
}

// BenchmarkConvDirect3DAccum16 times the MSM level convolution of a 16³
// grid at g_c = 8 (17³ taps per point, folded to 9² mirrored rows) in the
// form msm.Solver calls.
func BenchmarkConvDirect3DAccum16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := randGrid(rng, 16, 16, 16)
	gc := 8
	k3 := randKernel3(rng, gc)
	dst := New(16, 16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvDirect3DAccum(dst, src, k3, gc)
	}
}

func BenchmarkConvDirect3D32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := randGrid(rng, 32, 32, 32)
	gc := 8
	k3 := randKernel3(rng, gc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvDirect3D(src, k3, gc)
	}
}
