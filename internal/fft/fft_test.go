package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			theta := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			out[k] += x[j] * cmplx.Exp(complex(0, theta))
		}
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		x := randComplex(rng, n)
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d k=%d: got %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 64, 256, 1024} {
		p := NewPlan(n)
		x := randComplex(rng, n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		for i := range x {
			if cmplx.Abs(x[i]-y[i]) > 1e-12 {
				t.Fatalf("n=%d: roundtrip mismatch at %d: %v vs %v", n, i, x[i], y[i])
			}
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 128
	x := randComplex(rng, n)
	var timeE float64
	for _, v := range x {
		timeE += real(v)*real(v) + imag(v)*imag(v)
	}
	NewPlan(n).Forward(x)
	var freqE float64
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqE/float64(n)-timeE) > 1e-9*timeE {
		t.Errorf("Parseval violated: time %g freq/n %g", timeE, freqE/float64(n))
	}
}

func TestImpulseResponse(t *testing.T) {
	n := 32
	x := make([]complex128, n)
	x[0] = 1
	NewPlan(n).Forward(x)
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-13 {
			t.Errorf("delta transform at %d: %v, want 1", k, v)
		}
	}
}

func TestLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 64
	p := NewPlan(n)
	f := func(seed int64, ar, ai float64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randComplex(r, n)
		y := randComplex(r, n)
		a := complex(math.Mod(ar, 10), math.Mod(ai, 10))
		// FFT(a·x + y)
		lhs := make([]complex128, n)
		for i := range lhs {
			lhs[i] = a*x[i] + y[i]
		}
		p.Forward(lhs)
		// a·FFT(x) + FFT(y)
		fx := append([]complex128(nil), x...)
		fy := append([]complex128(nil), y...)
		p.Forward(fx)
		p.Forward(fy)
		for i := range lhs {
			if cmplx.Abs(lhs[i]-(a*fx[i]+fy[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRealInputHermitianSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	NewPlan(n).Forward(x)
	for k := 1; k < n; k++ {
		if cmplx.Abs(x[k]-cmplx.Conj(x[n-k])) > 1e-10 {
			t.Fatalf("Hermitian symmetry violated at k=%d", k)
		}
	}
}

func TestPlan3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewPlan3(8, 4, 16)
	x := randComplex(rng, p.Size())
	y := append([]complex128(nil), x...)
	p.Forward(y)
	p.Inverse(y)
	for i := range x {
		if cmplx.Abs(x[i]-y[i]) > 1e-12 {
			t.Fatalf("3D roundtrip mismatch at %d", i)
		}
	}
}

func TestPlan3MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nx, ny, nz := 4, 2, 8
	p := NewPlan3(nx, ny, nz)
	x := randComplex(rng, p.Size())
	got := append([]complex128(nil), x...)
	p.Forward(got)
	// Naive separable check at a few frequencies.
	for _, k := range [][3]int{{0, 0, 0}, {1, 0, 3}, {3, 1, 7}, {2, 1, 4}} {
		var want complex128
		for iz := 0; iz < nz; iz++ {
			for iy := 0; iy < ny; iy++ {
				for ix := 0; ix < nx; ix++ {
					theta := -2 * math.Pi * (float64(k[0]*ix)/float64(nx) +
						float64(k[1]*iy)/float64(ny) + float64(k[2]*iz)/float64(nz))
					want += x[ix+nx*(iy+ny*iz)] * cmplx.Exp(complex(0, theta))
				}
			}
		}
		g := got[k[0]+nx*(k[1]+ny*k[2])]
		if cmplx.Abs(g-want) > 1e-9 {
			t.Errorf("3D DFT at %v: got %v want %v", k, g, want)
		}
	}
}

func TestPlanCacheReuse(t *testing.T) {
	if NewPlan(64) != NewPlan(64) {
		t.Error("plans of equal length should be cached and shared")
	}
}

func TestNewPlanRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two length")
		}
	}()
	NewPlan(12)
}

func BenchmarkFFT1D32(b *testing.B)   { benchFFT1D(b, 32) }
func BenchmarkFFT1D1024(b *testing.B) { benchFFT1D(b, 1024) }

func benchFFT1D(b *testing.B, n int) {
	p := NewPlan(n)
	x := randComplex(rand.New(rand.NewSource(1)), n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}
