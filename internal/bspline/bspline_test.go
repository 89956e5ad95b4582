package bspline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var orders = []int{2, 4, 6, 8}

func TestEvalSupportAndSymmetry(t *testing.T) {
	for _, p := range orders {
		half := float64(p) / 2
		if Eval(p, half) != 0 || Eval(p, -half) != 0 {
			t.Errorf("p=%d: M_p should vanish at ±p/2", p)
		}
		if Eval(p, half+0.5) != 0 {
			t.Errorf("p=%d: M_p should vanish outside support", p)
		}
		for _, x := range []float64{0.1, 0.7, 1.3, 2.4} {
			if math.Abs(Eval(p, x)-Eval(p, -x)) > 1e-15 {
				t.Errorf("p=%d: M_p not even at x=%g", p, x)
			}
		}
	}
}

func TestEvalKnownValues(t *testing.T) {
	// M_2 is the unit triangle.
	if math.Abs(Eval(2, 0)-1) > 1e-15 {
		t.Errorf("M_2(0) = %g, want 1", Eval(2, 0))
	}
	if math.Abs(Eval(2, 0.5)-0.5) > 1e-15 {
		t.Errorf("M_2(0.5) = %g, want 0.5", Eval(2, 0.5))
	}
	// M_4(0) = 2/3, M_4(±1) = 1/6 (cubic B-spline central values).
	if math.Abs(Eval(4, 0)-2.0/3.0) > 1e-15 {
		t.Errorf("M_4(0) = %g, want 2/3", Eval(4, 0))
	}
	if math.Abs(Eval(4, 1)-1.0/6.0) > 1e-15 {
		t.Errorf("M_4(1) = %g, want 1/6", Eval(4, 1))
	}
	// M_6 at integers: 1/120, 26/120, 66/120 (quintic central values).
	want := []float64{1.0 / 120, 26.0 / 120, 66.0 / 120}
	for k, w := range want {
		got := Eval(6, float64(2-k))
		if math.Abs(got-w) > 1e-15 {
			t.Errorf("M_6(%d) = %.16f, want %.16f", 2-k, got, w)
		}
	}
}

func TestPartitionOfUnity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range orders {
		f := func(xr float64) bool {
			x := math.Mod(xr, 50)
			var s float64
			for m := int(math.Floor(x)) - p; m <= int(math.Ceil(x))+p; m++ {
				s += Eval(p, x-float64(m))
			}
			return math.Abs(s-1) < 1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
			t.Errorf("p=%d: partition of unity violated: %v", p, err)
		}
	}
}

func TestUnitIntegral(t *testing.T) {
	for _, p := range orders {
		const n = 20000
		half := float64(p) / 2
		h := 2 * half / n
		var s float64
		for i := 0; i < n; i++ {
			s += Eval(p, -half+(float64(i)+0.5)*h) * h
		}
		if math.Abs(s-1) > 1e-6 {
			t.Errorf("p=%d: ∫M_p = %g, want 1", p, s)
		}
	}
}

func TestDerivMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range orders {
		for trial := 0; trial < 40; trial++ {
			x := (rng.Float64() - 0.5) * float64(p)
			const h = 1e-6
			fd := (Eval(p, x+h) - Eval(p, x-h)) / (2 * h)
			if math.Abs(Deriv(p, x)-fd) > 1e-6 {
				t.Errorf("p=%d x=%g: Deriv=%g fd=%g", p, x, Deriv(p, x), fd)
			}
		}
	}
}

func TestWeightsMatchEval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := make([]float64, 8)
	dw := make([]float64, 8)
	for _, p := range orders {
		for trial := 0; trial < 100; trial++ {
			u := (rng.Float64() - 0.5) * 40
			m0 := Weights(p, u, w[:p], dw[:p])
			for k := 0; k < p; k++ {
				x := u - float64(m0+k)
				if math.Abs(w[k]-Eval(p, x)) > 1e-13 {
					t.Fatalf("p=%d u=%g k=%d: weight %g, want M_p(%g)=%g",
						p, u, k, w[k], x, Eval(p, x))
				}
				if math.Abs(dw[k]-Deriv(p, x)) > 1e-13 {
					t.Fatalf("p=%d u=%g k=%d: dweight %g, want M_p'(%g)=%g",
						p, u, k, dw[k], x, Deriv(p, x))
				}
			}
		}
	}
}

// TestWeightsP6MatchesRecurrence: the unrolled p = 6 path returns the bits
// of the recurrence loop — m0, every weight and every derivative, signed
// zeros told apart — on over a million coordinates: random ones near the
// origin and far out on both sides, integers and half-integers, and
// fractional parts within a few ulps of 1, where x + j rounds up to j + 1
// and the top-order terms become exact zeros.
func TestWeightsP6MatchesRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var w, dw, ww, wdw [6]float64
	check := func(u float64) {
		m0 := Weights(6, u, w[:], dw[:])
		wm0 := recurrence(6, u, ww[:], wdw[:])
		if m0 != wm0 {
			t.Fatalf("u=%.17g: m0 %d, recurrence %d", u, m0, wm0)
		}
		for k := range w {
			if math.Float64bits(w[k]) != math.Float64bits(ww[k]) || math.Float64bits(dw[k]) != math.Float64bits(wdw[k]) {
				t.Fatalf("u=%.17g k=%d: (w, dw) = (%.17g, %.17g), recurrence (%.17g, %.17g)", u, k, w[k], dw[k], ww[k], wdw[k])
			}
		}
	}
	for n := -20000; n <= 20000; n++ {
		check(float64(n))
		check(float64(n) + 0.5)
		below := math.Nextafter(float64(n+1), math.Inf(-1))
		for k := 0; k < 4; k++ {
			check(below)
			below = math.Nextafter(below, math.Inf(-1))
		}
	}
	for _, scale := range []float64{1, 64, 1e4, 1e9, 1e14} {
		for n := 0; n < 200000; n++ {
			check((2*rng.Float64() - 1) * scale)
		}
	}
}

func TestWeightsSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, p := range orders {
		f := func(ur float64) bool {
			u := math.Mod(ur, 100)
			w := make([]float64, p)
			dw := make([]float64, p)
			Weights(p, u, w, dw)
			var sw, sdw float64
			for k := 0; k < p; k++ {
				sw += w[k]
				sdw += dw[k]
			}
			// Weights sum to 1 (partition of unity), derivatives to 0.
			return math.Abs(sw-1) < 1e-12 && math.Abs(sdw) < 1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
}

func TestTwoScaleRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range orders {
		J := TwoScale(p)
		// Check coefficients sum to 2 (so restriction preserves total charge
		// per axis up to the downsampling convention).
		var s float64
		for _, j := range J {
			s += j
		}
		if math.Abs(s-2) > 1e-14 {
			t.Errorf("p=%d: ΣJ = %g, want 2", p, s)
		}
		// M_p(x) = Σ_m J_m M_p(2x−m) pointwise.
		for trial := 0; trial < 50; trial++ {
			x := (rng.Float64() - 0.5) * float64(p+1)
			var rhs float64
			for m := -p / 2; m <= p/2; m++ {
				rhs += J[m+p/2] * Eval(p, 2*x-float64(m))
			}
			if math.Abs(Eval(p, x)-rhs) > 1e-13 {
				t.Errorf("p=%d x=%g: two-scale violated: %g vs %g", p, x, Eval(p, x), rhs)
			}
		}
	}
}

func TestTwoScaleKnownP6(t *testing.T) {
	J := TwoScale(6)
	want := []float64{1.0 / 32, 6.0 / 32, 15.0 / 32, 20.0 / 32, 15.0 / 32, 6.0 / 32, 1.0 / 32}
	for i := range want {
		if math.Abs(J[i]-want[i]) > 1e-15 {
			t.Errorf("J[%d] = %g, want %g", i, J[i], want[i])
		}
	}
}

func TestOmegaInterpolationIdentity(t *testing.T) {
	for _, p := range []int{4, 6} {
		maxM := 40
		om := Omega(p, maxM)
		// Σ_m ω_m M_p(n−m) should be δ_{n0}.
		for n := -5; n <= 5; n++ {
			var s float64
			for m := -maxM; m <= maxM; m++ {
				s += om[m+maxM] * Eval(p, float64(n-m))
			}
			want := 0.0
			if n == 0 {
				want = 1
			}
			if math.Abs(s-want) > 1e-12 {
				t.Errorf("p=%d n=%d: Σω M = %g, want %g", p, n, s, want)
			}
		}
	}
}

func TestOmegaSqIsOmegaConvolved(t *testing.T) {
	p := 6
	maxM := 20
	big := 60
	om := Omega(p, big)
	os := OmegaSq(p, maxM)
	for m := -maxM; m <= maxM; m++ {
		var s float64
		for k := -big; k <= big; k++ {
			j := m - k
			if j < -big || j > big {
				continue
			}
			s += om[k+big] * om[j+big]
		}
		if math.Abs(os[m+maxM]-s) > 1e-11 {
			t.Errorf("m=%d: ω′=%g, ω∗ω=%g", m, os[m+maxM], s)
		}
	}
}

// TestOmegaSqDefiningProperty verifies ω′ ∗ m_p ∗ m_p = δ, where m_p is the
// sequence of integer samples of M_p and ∗ is discrete convolution — the
// property that makes ω′ the "double-sided" inverse filter of Eq. (8).
func TestOmegaSqDefiningProperty(t *testing.T) {
	for _, p := range []int{4, 6} {
		maxM := 50
		os := OmegaSq(p, maxM)
		mp := IntegerSamples(p) // index k+p/2, k=-p/2..p/2
		// mm = m_p ∗ m_p, support |k| ≤ p.
		mm := make([]float64, 2*p+1)
		for i := -p / 2; i <= p/2; i++ {
			for j := -p / 2; j <= p/2; j++ {
				mm[i+j+p] += mp[i+p/2] * mp[j+p/2]
			}
		}
		for n := -4; n <= 4; n++ {
			var s float64
			for m := -maxM; m <= maxM; m++ {
				k := n - m
				if k < -p || k > p {
					continue
				}
				s += os[m+maxM] * mm[k+p]
			}
			want := 0.0
			if n == 0 {
				want = 1
			}
			if math.Abs(s-want) > 1e-11 {
				t.Errorf("p=%d n=%d: (ω′∗m∗m)(n) = %g, want %g", p, n, s, want)
			}
		}
	}
}

// TestGridKernelReconstructsGaussian validates paper Eq. (8): the kernel
// coefficients G_m(a) reproduce the Gaussian e^{−a²(x−x′)²} through the
// double B-spline expansion. The representation error is the order-p
// fundamental-spline interpolation error of a width-1/a Gaussian sampled on
// a unit grid, which scales as a^p; we assert both the measured error bound
// and the scaling, and that the representation is exact at integer points
// (where it reduces to interpolation).
func TestGridKernelReconstructsGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := 6
	reconstruct := func(G []float64, maxM int, x, xp float64) float64 {
		var got float64
		for m := int(x) - p; m <= int(x)+p; m++ {
			mx := Eval(p, x-float64(m))
			if mx == 0 {
				continue
			}
			for mp := int(xp) - p; mp <= int(xp)+p; mp++ {
				mxp := Eval(p, xp-float64(mp))
				if mxp == 0 {
					continue
				}
				d := m - mp
				if d < -maxM || d > maxM {
					continue
				}
				got += G[d+maxM] * mx * mxp
			}
		}
		return got
	}
	var prevMax float64 = -1
	for _, a := range []float64{1.0, 0.7, 0.5, 0.3} { // decreasing width parameter
		maxM := 24
		G := GridKernel(p, a, maxM)
		var maxErr float64
		for trial := 0; trial < 400; trial++ {
			x := rng.Float64() * 4
			xp := rng.Float64() * 4
			want := math.Exp(-a * a * (x - xp) * (x - xp))
			if e := math.Abs(reconstruct(G, maxM, x, xp) - want); e > maxErr {
				maxErr = e
			}
		}
		// Empirical bound ~0.06·a^6 (+ floor from kernel truncation).
		if bound := 0.12*math.Pow(a, 6) + 5e-5; maxErr > bound {
			t.Errorf("a=%g: max reconstruction error %g exceeds %g", a, maxErr, bound)
		}
		if prevMax >= 0 && maxErr > prevMax {
			t.Errorf("a=%g: error %g did not decrease with narrower a (prev %g)", a, maxErr, prevMax)
		}
		prevMax = maxErr
		// Exactness (to interpolation accuracy) at integer sample pairs.
		for xi := 0; xi <= 3; xi++ {
			for xj := 0; xj <= 3; xj++ {
				want := math.Exp(-a * a * float64((xi-xj)*(xi-xj)))
				got := reconstruct(G, maxM, float64(xi), float64(xj))
				if math.Abs(got-want) > 1e-9 {
					t.Errorf("a=%g integers (%d,%d): got %.12f want %.12f", a, xi, xj, got, want)
				}
			}
		}
	}
}

func TestEulerFactorsSqDC(t *testing.T) {
	for _, p := range orders {
		b := EulerFactorsSq(p, 32)
		// At m=0 the denominator is Σ_k M_p(k+1) = 1 (partition of unity).
		if math.Abs(b[0]-1) > 1e-12 {
			t.Errorf("p=%d: |b(0)|² = %g, want 1", p, b[0])
		}
		// Symmetry b(m) = b(N−m).
		for m := 1; m < 16; m++ {
			if math.Abs(b[m]-b[32-m]) > 1e-9*math.Abs(b[m]) {
				t.Errorf("p=%d m=%d: Euler factors not symmetric", p, m)
			}
		}
	}
}

func BenchmarkWeightsP6(b *testing.B) {
	w := make([]float64, 6)
	dw := make([]float64, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Weights(6, 3.7+float64(i%10)*0.1, w, dw)
	}
}
