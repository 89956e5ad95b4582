package gcu

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/bspline"
	"tme4a/internal/fixpoint"
	"tme4a/internal/grid"
)

var coefFmt = fixpoint.Format{Frac: 24}

func randomFixedGrid(rng *rand.Rand, n int, f fixpoint.Format) (*fixpoint.Grid32, *grid.G) {
	fg := fixpoint.NewGrid32(n, n, n, f)
	gg := grid.New(n, n, n)
	for i := range gg.Data {
		v := rng.NormFloat64()
		gg.Data[i] = f.Value(f.Quantize(v)) // use the quantized value as truth
		fg.Data[i] = f.Quantize(v)
	}
	return fg, gg
}

// floatConvAxis is the plain float reference of one axis pass,
// dst[n] = Σ_m k[m+gc]·src[n−m] with periodic wrap, written out here so the
// fixed-point engine is checked against an asymmetric kernel (grid.ConvAxis
// takes only even kernels, which hide a flipped index or a reversed
// coefficient read).
func floatConvAxis(src *grid.G, axis int, kernel []float64) *grid.G {
	gc := len(kernel) / 2
	dst := grid.New(src.N[0], src.N[1], src.N[2])
	for iz := 0; iz < src.N[2]; iz++ {
		for iy := 0; iy < src.N[1]; iy++ {
			for ix := 0; ix < src.N[0]; ix++ {
				var s float64
				for m := -gc; m <= gc; m++ {
					var v float64
					switch axis {
					case 0:
						v = at(src, ix-m, iy, iz)
					case 1:
						v = at(src, ix, iy-m, iz)
					default:
						v = at(src, ix, iy, iz-m)
					}
					s += kernel[m+gc] * v
				}
				dst.Data[ix+dst.N[0]*(iy+dst.N[1]*iz)] = s
			}
		}
	}
	return dst
}

// at returns g's value at (ix, iy, iz) with periodic wrapping.
func at(g *grid.G, ix, iy, iz int) float64 {
	wrap := func(i, n int) int { return ((i % n) + n) % n }
	n := g.N
	return g.Data[wrap(ix, n[0])+n[0]*(wrap(iy, n[1])+n[1]*wrap(iz, n[2]))]
}

func TestConvAxisMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gridFmt := fixpoint.Format{Frac: 20}
	fg, gg := randomFixedGrid(rng, 8, gridFmt)
	kf := make([]float64, 9)
	for i := range kf {
		kf[i] = rng.NormFloat64() * 0.3
	}
	k := QuantizeKernel(kf, coefFmt)
	// Use the quantized kernel values as the float reference.
	for i := range kf {
		kf[i] = coefFmt.Value(k.Coefs[i])
	}
	for axis := 0; axis < 3; axis++ {
		dst := fixpoint.NewGrid32(8, 8, 8, gridFmt)
		ConvAxis(dst, fg, axis, k)
		want := floatConvAxis(gg, axis, kf)
		for i := range want.Data {
			got := gridFmt.Value(dst.Data[i])
			if math.Abs(got-want.Data[i]) > 2/gridFmt.Scale() {
				t.Fatalf("axis %d idx %d: %g vs %g", axis, i, got, want.Data[i])
			}
		}
	}
}

func TestConvSeparableMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gridFmt := fixpoint.Format{Frac: 18}
	fg, gg := randomFixedGrid(rng, 8, gridFmt)
	kf := make([]float64, 7)
	for i := range kf {
		kf[i] = rng.NormFloat64() * 0.2
	}
	k := QuantizeKernel(kf, coefFmt)
	for i := range kf {
		kf[i] = coefFmt.Value(k.Coefs[i])
	}
	got := ConvSeparable(fg, k, k, k)
	want := floatConvAxis(floatConvAxis(floatConvAxis(gg, 0, kf), 1, kf), 2, kf)
	var maxErr, maxAbs float64
	for i := range want.Data {
		g := gridFmt.Value(got.Data[i])
		if e := math.Abs(g - want.Data[i]); e > maxErr {
			maxErr = e
		}
		if a := math.Abs(want.Data[i]); a > maxAbs {
			maxAbs = a
		}
	}
	// Three requantizations accumulate a few ULPs of the grid format.
	if maxErr > 20/gridFmt.Scale() {
		t.Errorf("max error %g vs resolution %g", maxErr, 1/gridFmt.Scale())
	}
	if maxAbs == 0 {
		t.Fatal("degenerate test data")
	}
}

// TestRestrictExactForExactJ: the two-scale coefficients are multiples of
// 2^{1−p}, so fixed-point restriction introduces only the single output
// rounding; with grid data on coarse binary values it is exact.
func TestRestrictExactForExactJ(t *testing.T) {
	j := QuantizeKernel(bspline.TwoScale(6), coefFmt)
	// J entries must quantize exactly.
	J := bspline.TwoScale(6)
	for i, v := range J {
		if coefFmt.Value(j.Coefs[i]) != v {
			t.Fatalf("J[%d] not exact in Q24: %g vs %g", i, coefFmt.Value(j.Coefs[i]), v)
		}
	}
	gridFmt := fixpoint.Format{Frac: 20}
	rng := rand.New(rand.NewSource(3))
	fg := fixpoint.NewGrid32(8, 8, 8, gridFmt)
	gg := grid.New(8, 8, 8)
	for i := range gg.Data {
		// Multiples of 2^-5: after three axis passes the values are
		// multiples of 2^-20, still exact in the Q20 grid format.
		v := float64(rng.Intn(64)-32) / 32
		gg.Data[i] = v
		fg.Data[i] = gridFmt.Quantize(v)
	}
	got := Restrict(fg, j)
	want := grid.New(4, 4, 4)
	grid.RestrictInto(want, gg, J, grid.NewPool())
	for i := range want.Data {
		if g := gridFmt.Value(got.Data[i]); math.Abs(g-want.Data[i]) > 1e-12 {
			t.Fatalf("idx %d: %g vs %g", i, g, want.Data[i])
		}
	}
	if got.N != [3]int{4, 4, 4} {
		t.Errorf("restricted shape %v", got.N)
	}
}

func TestProlongMatchesFloat(t *testing.T) {
	j := QuantizeKernel(bspline.TwoScale(6), coefFmt)
	J := bspline.TwoScale(6)
	gridFmt := fixpoint.Format{Frac: 20}
	rng := rand.New(rand.NewSource(4))
	fg, gg := randomFixedGrid(rng, 4, gridFmt)
	got := Prolong(fg, j)
	want := grid.New(8, 8, 8)
	grid.ProlongInto(want, gg, J, grid.NewPool())
	if got.N != [3]int{8, 8, 8} {
		t.Fatalf("prolonged shape %v", got.N)
	}
	for i := range want.Data {
		if g := gridFmt.Value(got.Data[i]); math.Abs(g-want.Data[i]) > 10/gridFmt.Scale() {
			t.Fatalf("idx %d: %g vs %g", i, g, want.Data[i])
		}
	}
}

func TestCycleModels(t *testing.T) {
	// 4³ local grid, g_c = 8 (17 taps), M = 4: 13,056 MACs → 1,088 cycles,
	// 1.81 µs at 0.6 GHz — the basis of the paper's 6 µs GCU phase after
	// network and synchronization overheads.
	c := ConvCycles(64, 17, 4)
	if c != 1088 {
		t.Errorf("ConvCycles = %d, want 1088", c)
	}
	if r := RestrictCycles(64, 6); r < 1 || r > 50 {
		t.Errorf("RestrictCycles = %d out of plausible range", r)
	}
	if p := ProlongCycles(64, 6); p < 1 || p > 120 {
		t.Errorf("ProlongCycles = %d out of plausible range", p)
	}
}
