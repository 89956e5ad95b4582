package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicAlgebra(t *testing.T) {
	a := New(1, 2, 3)
	b := New(4, -5, 6)
	if got := a.Add(b); got != New(5, -3, 9) {
		t.Errorf("Add: %v", got)
	}
	if got := a.Sub(b); got != New(-3, 7, -3) {
		t.Errorf("Sub: %v", got)
	}
	if got := a.Dot(b); got != 1*4-2*5+3*6 {
		t.Errorf("Dot: %v", got)
	}
	if got := a.Cross(b); got != New(2*6+3*5, 3*4-1*6, -1*5-2*4) {
		t.Errorf("Cross: %v", got)
	}
	if got := a.Scale(2); got != New(2, 4, 6) {
		t.Errorf("Scale: %v", got)
	}
}

func TestCrossOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := New(math.Mod(ax, 100), math.Mod(ay, 100), math.Mod(az, 100))
		b := New(math.Mod(bx, 100), math.Mod(by, 100), math.Mod(bz, 100))
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
		d := New(rng.NormFloat64()*20, rng.NormFloat64()*20, rng.NormFloat64()*20)
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
		r := New(rng.NormFloat64()*10, rng.NormFloat64()*10, rng.NormFloat64()*10)
		w := box.Wrap(r)
		for k := 0; k < 3; k++ {
			if w[k] < 0 || w[k] >= box.L[k] {
				t.Fatalf("Wrap out of box: %v -> %v", r, w)
			}
		}
	}
}

func TestVolumeAndFrac(t *testing.T) {
	box := NewBox(2, 3, 4)
	if box.Volume() != 24 {
		t.Errorf("Volume = %g", box.Volume())
	}
	if got := box.Frac(New(1, 1.5, 2)); got != New(0.5, 0.5, 0.5) {
		t.Errorf("Frac = %v", got)
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
			if got := MinImage1(d[k], box.L[k], inv[k]); got != want[k] {
				t.Fatalf("component %d of %v: MinImage1 %.17g, MinImage %.17g", k, d, got, want[k])
			}
		}
	}
}
