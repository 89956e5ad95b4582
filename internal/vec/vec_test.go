package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicAlgebra(t *testing.T) {
	a := V{1, 2, 3}
	b := V{4, -5, 6}
	if got := a.Add(b); got != (V{5, -3, 9}) {
		t.Errorf("Add: %v", got)
	}
	if got := a.Sub(b); got != (V{-3, 7, -3}) {
		t.Errorf("Sub: %v", got)
	}
	if got := a.Dot(b); got != 1*4-2*5+3*6 {
		t.Errorf("Dot: %v", got)
	}
	if got := a.Cross(b); got != (V{2*6 + 3*5, 3*4 - 1*6, -1*5 - 2*4}) {
		t.Errorf("Cross: %v", got)
	}
	if got := a.Scale(2); got != (V{2, 4, 6}) {
		t.Errorf("Scale: %v", got)
	}
}

func TestCrossOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V{math.Mod(ax, 100), math.Mod(ay, 100), math.Mod(az, 100)}
		b := V{math.Mod(bx, 100), math.Mod(by, 100), math.Mod(bz, 100)}
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		if scale == 0 {
			return true
		}
		return math.Abs(c.Dot(a))/scale < 1e-9 && math.Abs(c.Dot(b))/scale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestMinImageRange(t *testing.T) {
	box := NewBox(3, 5, 7)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		d := V{rng.NormFloat64() * 20, rng.NormFloat64() * 20, rng.NormFloat64() * 20}
		m := box.MinImage(d)
		for k := 0; k < 3; k++ {
			if m[k] < -box.L[k]/2-1e-12 || m[k] > box.L[k]/2+1e-12 {
				t.Fatalf("MinImage out of range: %v -> %v", d, m)
			}
			// Difference must be an integer multiple of the box edge.
			r := (d[k] - m[k]) / box.L[k]
			if math.Abs(r-math.Round(r)) > 1e-9 {
				t.Fatalf("MinImage not lattice-equivalent: %v -> %v", d, m)
			}
		}
	}
}

func TestWrapIntoBox(t *testing.T) {
	box := NewBox(2.5, 4, 1)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		r := V{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		w := box.Wrap(r)
		for k := 0; k < 3; k++ {
			if w[k] < 0 || w[k] >= box.L[k] {
				t.Fatalf("Wrap out of box: %v -> %v", r, w)
			}
		}
	}
}

func TestVolume(t *testing.T) {
	box := NewBox(2, 3, 4)
	if box.Volume() != 24 {
		t.Errorf("Volume = %g", box.Volume())
	}
}

// TestMinImage1MatchesMinImage: the scalar per-component form used by the
// pair loops returns the same bits as Box.MinImage for unwrapped
// displacements — several box lengths out, in a box with three different
// edges — whose image stays clear of the half-box tie, which covers every
// pair inside any usable cutoff.
func TestMinImage1MatchesMinImage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	box := NewBox(2.4849, 3.1, 4.75)
	inv := V{1 / box.L[0], 1 / box.L[1], 1 / box.L[2]}
	for n := 0; n < 100000; n++ {
		var d V
		for k := 0; k < 3; k++ {
			image := (2*rng.Float64() - 1) * 0.45 * box.L[k]
			d[k] = image + float64(rng.Intn(9)-4)*box.L[k]
		}
		want := box.MinImage(d)
		for k := 0; k < 3; k++ {
			if got := MinImage1(d[k], box.L[k], inv[k]); !sameImage(got, want[k]) {
				t.Fatalf("component %d of %v: MinImage1 %.17g, MinImage %.17g", k, d, got, want[k])
			}
		}
	}
}

// sameImage is bitwise equality, except that a zero image may carry either
// sign: −0 − l·(+0) is −0 where Box.MinImage's −0 − l·(−0) is +0, and no
// sum, square or product with a displacement can tell them apart.
func sameImage(a, b float64) bool {
	if a == 0 && b == 0 {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestMinImage1Edges: the magic-constant rounding against Box.MinImage on
// exact box multiples, on ±0, and on displacements up to 10⁶ box lengths
// out (still far inside the form's |d/l| < 2⁵¹ range).
func TestMinImage1Edges(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, l := range []float64{2.4849, 3.1, 4.75, 1, 0.3} {
		box := Cubic(l)
		inv := 1 / l
		check := func(d float64) {
			t.Helper()
			want := box.MinImage(V{d})[0]
			if got := MinImage1(d, l, inv); !sameImage(got, want) {
				t.Fatalf("l=%g d=%.17g: MinImage1 %.17g, MinImage %.17g", l, d, got, want)
			}
		}
		check(0)
		check(math.Copysign(0, -1))
		for k := -1000; k <= 1000; k++ {
			check(float64(k) * l)
		}
		for n := 0; n < 20000; n++ {
			image := (2*rng.Float64() - 1) * 0.45 * l
			shift := math.Round((2*rng.Float64() - 1) * 1e6)
			check(image + shift*l)
			check(shift * l)
		}
	}
}

// TestMinImageHalfBoxTie: a displacement of exactly (k + ½) box lengths has
// two nearest images. MinImage rounds the tie away from zero, MinImage1 to
// even; both must return one of the two, of magnitude exactly l/2. The box
// lengths and multiples are chosen so every product is exact.
func TestMinImageHalfBoxTie(t *testing.T) {
	for _, l := range []float64{4, 2.5, 0.75, 3.125} {
		box := Cubic(l)
		for k := -40; k <= 40; k++ {
			d := (float64(k) + 0.5) * l
			if got := box.MinImage(V{d})[0]; math.Abs(got) != l/2 {
				t.Errorf("l=%g d=%g: MinImage returned %g, want ±%g", l, d, got, l/2)
			}
			if got := MinImage1(d, l, 1/l); math.Abs(got) != l/2 {
				t.Errorf("l=%g d=%g: MinImage1 returned %g, want ±%g", l, d, got, l/2)
			}
		}
	}
}

// BenchmarkMinImage1 is the per-component minimum image of the pair loops,
// over displacements up to three box lengths out.
func BenchmarkMinImage1(b *testing.B) {
	const l = 2.4849
	var d [1024]float64
	rng := rand.New(rand.NewSource(1))
	for i := range d {
		d[i] = (2*rng.Float64() - 1) * 3 * l
	}
	var s float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s += MinImage1(d[i&1023], l, 1/l)
	}
	sink = s
}

var sink float64
