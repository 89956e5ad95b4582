// Package bspline implements the cardinal B-spline machinery that underlies
// SPME, B-spline MSM and the TME method: pointwise evaluation of the central
// B-spline M_p and its derivative, particle–mesh spreading weights, the
// two-scale coefficients J used for restriction/prolongation, the
// fundamental-spline inverse filter ω (and ω′ = ω∗ω) used to build grid
// kernels, and the Euler-spline factors |b(m)|² of the SPME lattice Green
// function.
//
// Conventions follow the paper: M_p is the *central* B-spline of even order
// p with support (−p/2, p/2), normalised to ∫M_p = 1 and partition of unity
// Σ_m M_p(x−m) = 1.
package bspline

import (
	"fmt"
	"math"

	"tme4a/internal/fft"
)

// Eval returns the central B-spline M_p(x). p must be ≥ 2.
func Eval(p int, x float64) float64 {
	return cardinal(p, x+float64(p)/2)
}

// cardinal evaluates the cardinal B-spline B_p with support [0, p] by the
// Cox–de Boor recurrence. It is exact but O(p²); hot paths use Weights.
// The recursion bottoms out at the continuous triangle B_2 rather than the
// half-open indicator B_1, so evaluation exactly at knots is well defined.
func cardinal(p int, t float64) float64 {
	if t <= 0 || t >= float64(p) {
		return 0
	}
	switch p {
	case 1:
		return 1
	case 2:
		return 1 - math.Abs(t-1)
	}
	return (t*cardinal(p-1, t) + (float64(p)-t)*cardinal(p-1, t-1)) / float64(p-1)
}

// Weights computes the p particle–mesh spreading weights of a particle at
// normalised coordinate u (grid units). It returns m0, the lowest grid index
// with nonzero weight; w[k] = M_p(u − (m0+k)) and dw[k] = M_p'(u − (m0+k))
// for k = 0..p−1. w and dw must each have length ≥ p.
//
// This is the O(p²) single-pass recurrence used by SPME implementations,
// which evaluates M_p and M_p' on all p grid points at once — for p = 6 the
// computation the LRU pipeline performs in hardware. p = 6, the paper's
// order and the order of every production path, runs the recurrence
// unrolled: the same operations on the same operands in the same order, so
// the same bits as the loop (TestWeightsP6MatchesRecurrence), with the
// divisions by 1 gone and those by 2 and 4 exact multiplications.
func Weights(p int, u float64, w, dw []float64) (m0 int) {
	if p != 6 {
		return recurrence(p, u, w, dw)
	}
	w, dw = w[:6], dw[:6]
	fl := math.Floor(u)
	x := u - fl
	t1, t2, t3, t4, t5 := x+1, x+2, x+3, x+4, x+5
	// B_2(x+j), j = 0, 1. Below, a recurrence term whose other factor is
	// an exact zero (v[k] = 0 at the top, lower = 0 at the bottom) is left
	// out: it adds +0 to a non-negative product.
	v1 := 2 - t1
	v0 := x
	// B_3.
	v2 := ((3 - t2) * v1) / 2
	v1 = (t1*v1 + (3-t1)*v0) / 2
	v0 = (x * v0) / 2
	// B_4.
	v3 := ((4 - t3) * v2) / 3
	v2 = (t2*v2 + (4-t2)*v1) / 3
	v1 = (t1*v1 + (4-t1)*v0) / 3
	v0 = (x * v0) / 3
	// B_5.
	v4 := ((5 - t4) * v3) / 4
	v3 = (t3*v3 + (5-t3)*v2) / 4
	v2 = (t2*v2 + (5-t2)*v1) / 4
	v1 = (t1*v1 + (5-t1)*v0) / 4
	v0 = (x * v0) / 4
	// M_6' from B_5; 0 − v4 is not −v4 when v4 is +0.
	dw[0], dw[1], dw[2], dw[3], dw[4], dw[5] = 0-v4, v4-v3, v3-v2, v2-v1, v1-v0, v0
	// M_6 = B_6, reversed.
	w[0] = ((6 - t5) * v4) / 5
	w[1] = (t4*v4 + (6-t4)*v3) / 5
	w[2] = (t3*v3 + (6-t3)*v2) / 5
	w[3] = (t2*v2 + (6-t2)*v1) / 5
	w[4] = (t1*v1 + (6-t1)*v0) / 5
	w[5] = (x * v0) / 5
	return int(fl) - 2
}

// recurrence is the order-p recurrence loop behind Weights, for any p; the
// oracle of the unrolled p = 6 path.
func recurrence(p int, u float64, w, dw []float64) (m0 int) {
	fl := math.Floor(u)
	frac := u - fl
	m0 = int(fl) - p/2 + 1

	// v[j] holds B_k(frac + j) for the current order k.
	var vbuf [16]float64
	v := vbuf[:p]
	v[0] = 1 // B_1(frac) = 1 for frac in [0,1)
	for k := 1; k < p-1; k++ {
		// Raise order: B_{k+1}(frac+j) from B_k.
		v[k] = 0
		for j := k; j >= 0; j-- {
			var lower float64
			if j > 0 {
				lower = v[j-1]
			}
			t := frac + float64(j)
			v[j] = (t*v[j] + (float64(k+1)-t)*lower) / float64(k)
		}
	}
	// v now holds B_{p-1}(frac+j), j = 0..p-2. Derivatives first:
	// M_p'(u-m_k) = B_{p-1}(frac+p-1-k) - B_{p-1}(frac+p-2-k).
	for k := 0; k < p; k++ {
		var a, b float64
		if j := p - 1 - k; j >= 0 && j <= p-2 {
			a = v[j]
		}
		if j := p - 2 - k; j >= 0 && j <= p-2 {
			b = v[j]
		}
		dw[k] = a - b
	}
	// Final order raise to B_p.
	v2 := vbuf[:p]
	v2[p-1] = 0
	for j := p - 1; j >= 0; j-- {
		var lower float64
		if j > 0 {
			lower = v[j-1]
		}
		var cur float64
		if j <= p-2 {
			cur = v[j]
		}
		t := frac + float64(j)
		v2[j] = (t*cur + (float64(p)-t)*lower) / float64(p-1)
	}
	// w[k] = M_p(u-m_k) = B_p(frac + p-1-k).
	for k := 0; k < p; k++ {
		w[k] = v2[p-1-k]
	}
	return m0
}

// Base returns the lowest grid index with nonzero order-p spreading weight
// for a particle at normalised coordinate u — the m0 that Weights returns,
// without computing the weights. Spatially-decomposed scatter loops
// (pmesh.AssignTo) use it to reject particles whose support misses a
// worker's slab before paying for the full weight recurrence.
func Base(p int, u float64) int {
	return int(math.Floor(u)) - p/2 + 1
}

// TwoScale returns the two-scale relation coefficients J_m of the order-p
// central B-spline, indexed J[m+p/2] for m = −p/2..p/2 (paper Sec. III.A):
//
//	M_p(x) = Σ_m J_m M_p(2x − m),  J_m = 2^{1−p} C(p, p/2+|m|).
//
// p must be even.
func TwoScale(p int) []float64 {
	if p%2 != 0 {
		panic("bspline: TwoScale requires even order")
	}
	J := make([]float64, p+1)
	scale := math.Pow(2, float64(1-p))
	for m := -p / 2; m <= p/2; m++ {
		J[m+p/2] = scale * float64(binom(p, p/2+abs(m)))
	}
	return J
}

// IntegerSamples returns M_p(k) for k = −p/2..p/2, indexed [k+p/2].
func IntegerSamples(p int) []float64 {
	s := make([]float64, p+1)
	for k := -p / 2; k <= p/2; k++ {
		s[k+p/2] = Eval(p, float64(k))
	}
	return s
}

// omegaRing is the ring length used for the spectral inversion that yields
// the fundamental-spline filter ω. The inverse filter decays geometrically
// (ratio ≈ 0.43 for p = 6), so a 512-ring leaves wrap-around error far below
// double-precision round-off.
const omegaRing = 512

// OmegaSq returns ω′ = ω∗ω truncated to |m| ≤ maxM, indexed ω′[m+maxM].
// ω′ converts samples of a kernel into the coefficients of its
// "spline-on-both-sides" representation (paper Eq. (8), Hardy et al. Table I).
func OmegaSq(p, maxM int) []float64 {
	return invertSpectrum(p, maxM, 2)
}

func invertSpectrum(p, maxM, power int) []float64 {
	if maxM >= omegaRing/2 {
		panic("bspline: maxM too large for spectral ring")
	}
	samples := IntegerSamples(p)
	plan := fft.NewPlan(omegaRing)
	spec := make([]complex128, omegaRing)
	for k := -p / 2; k <= p/2; k++ {
		idx := ((k % omegaRing) + omegaRing) % omegaRing
		spec[idx] += complex(samples[k+p/2], 0)
	}
	plan.Forward(spec)
	for i := range spec {
		e := spec[i]
		for q := 1; q < power; q++ {
			e *= spec[i]
		}
		spec[i] = 1 / e
	}
	// The spectrum of E_p is real and even, so no conjugation subtleties.
	plan.Inverse(spec)
	out := make([]float64, 2*maxM+1)
	for m := -maxM; m <= maxM; m++ {
		idx := ((m % omegaRing) + omegaRing) % omegaRing
		out[m+maxM] = real(spec[idx])
	}
	return out
}

// GridKernel returns the coefficients G_m(a) of the B-spline representation
// of the 1D Gaussian e^{−a²(x−x')²} (paper Eq. (8)): G(a) = g(a) ∗ ω′ with
// g_m = e^{−a²m²}. The result is truncated to |m| ≤ maxM, indexed [m+maxM].
// It is exactly even: G_m is summed for m ≥ 0 and mirrored to −m, which is
// what the mirrored-tap convolutions of internal/grid require.
func GridKernel(p int, a float64, maxM int) []float64 {
	if a <= 0 {
		panic(fmt.Sprintf("bspline: GridKernel needs a > 0, got %g", a))
	}
	// Range where the Gaussian samples are above double-precision noise.
	jmax := int(math.Ceil(6.8/a)) + 1
	wp := OmegaSq(p, maxM+jmax)
	half := maxM + jmax
	out := make([]float64, 2*maxM+1)
	for m := 0; m <= maxM; m++ {
		var s float64
		for j := -jmax; j <= jmax; j++ {
			// g_j * ω′_{m−j}; ω′ index bounds are ±(maxM+jmax).
			k := m - j
			if k < -half || k > half {
				continue
			}
			s += math.Exp(-a*a*float64(j*j)) * wp[k+half]
		}
		out[maxM+m], out[maxM-m] = s, s
	}
	return out
}

// EulerFactorsSq returns |b(m)|² for m = 0..N−1, the squared modulus of the
// SPME Euler-spline factor of order p on an N-point grid (Essmann et al.).
// The SPME lattice Green function multiplies |b_x|²|b_y|²|b_z|² because the
// B-spline approximation enters on both the charge-assignment and the
// back-interpolation sides.
func EulerFactorsSq(p, n int) []float64 {
	out := make([]float64, n)
	for m := 0; m < n; m++ {
		var dr, di float64
		for k := 0; k <= p-2; k++ {
			theta := 2 * math.Pi * float64(m) * float64(k) / float64(n)
			mp := Eval(p, float64(k+1)-float64(p)/2) // M_p(k+1) in cardinal indexing
			dr += mp * math.Cos(theta)
			di += mp * math.Sin(theta)
		}
		d2 := dr*dr + di*di
		if d2 < 1e-30 {
			// Interpolation blind spot (odd orders at the Nyquist mode);
			// the corresponding mode is dropped.
			out[m] = 0
			continue
		}
		out[m] = 1 / d2
	}
	return out
}

func binom(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := int64(1)
	for i := 1; i <= k; i++ {
		r = r * int64(n-k+i) / int64(i)
	}
	return r
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
