package core

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/ewald"
	"tme4a/internal/spme"
	"tme4a/internal/topol"
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

// paperLikeParams mirrors the paper's dimensionless operating point on a
// 4 nm box: h = 0.25 nm (vs 0.3116 nm), erfc(α·rc) = 1e-4, p = 6.
func paperLikeParams(rc float64, m, gc, levels int) Params {
	return Params{
		Alpha:  spme.AlphaFromRTol(rc, 1e-4),
		Rc:     rc,
		Order:  6,
		N:      [3]int{16, 16, 16},
		Levels: levels,
		M:      m,
		Gc:     gc,
	}
}

func TestTMEMatchesEwaldReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 64, box)
	_, fRef := ewald.Reference(box, pos, q, nil, 1e-12)

	s := New(paperLikeParams(1.2, 4, 8, 1), box)
	f := make([]vec.V, len(pos))
	s.Coulomb(pos, q, nil, f)
	err := relForceError(f, fRef)
	// Paper Table 1 at the comparable operating point (rc = 1.25 nm,
	// M ≥ 3, gc = 8) reports ~1.4e-4; allow headroom for the random
	// configuration and coarser system.
	// Sparse random-gas configurations have a small Σ|F_ref|² denominator,
	// so the relative error is ~10× the dense-water Table 1 values; the
	// water-box experiment (cmd/tmebench -exp table1) is the quantitative
	// comparison. Here we bound the same-parameter consistency.
	if err > 3e-3 {
		t.Errorf("relative force error %g, want < 3e-3", err)
	}
	t.Logf("TME M=4 gc=8 relative force error: %.3e", err)
}

// TestTMEAccuracyComparableToSPME is the paper's central accuracy claim
// (Table 1): at matched α, rc, p, N the TME error converges to the SPME
// error as M and gc grow.
func TestTMEAccuracyComparableToSPME(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 96, box)
	_, fRef := ewald.Reference(box, pos, q, nil, 1e-12)

	rc := 1.2
	sp := spme.New(spme.Params{Alpha: spme.AlphaFromRTol(rc, 1e-4), Rc: rc, Order: 6, N: [3]int{16, 16, 16}}, box)
	fs := make([]vec.V, len(pos))
	sp.Coulomb(pos, q, nil, fs)
	errSPME := relForceError(fs, fRef)

	s := New(paperLikeParams(rc, 4, 8, 1), box)
	ft := make([]vec.V, len(pos))
	s.Coulomb(pos, q, nil, ft)
	errTME := relForceError(ft, fRef)

	t.Logf("SPME err=%.3e TME err=%.3e", errSPME, errTME)
	if errTME > 3*errSPME {
		t.Errorf("TME error %g not comparable to SPME error %g", errTME, errSPME)
	}
}

// TestErrorConvergesInM reproduces the Table 1 trend: M = 1 is worst and
// the error stops improving by M ≈ 3–4.
func TestErrorConvergesInM(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 96, box)
	_, fRef := ewald.Reference(box, pos, q, nil, 1e-12)
	var errs []float64
	for m := 1; m <= 4; m++ {
		s := New(paperLikeParams(1.2, m, 8, 1), box)
		f := make([]vec.V, len(pos))
		s.Coulomb(pos, q, nil, f)
		errs = append(errs, relForceError(f, fRef))
	}
	t.Logf("errors M=1..4: %.3e %.3e %.3e %.3e", errs[0], errs[1], errs[2], errs[3])
	if errs[0] <= errs[2] {
		t.Errorf("M=1 error %g should exceed M=3 error %g", errs[0], errs[2])
	}
	if math.Abs(errs[3]-errs[2]) > 0.5*errs[2] {
		t.Errorf("M=3 (%g) and M=4 (%g) should be nearly converged", errs[2], errs[3])
	}
}

// TestLongRangeForceGradient checks the mesh force against finite
// differences of the mesh energy.
func TestLongRangeForceGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 12, box)
	s := New(paperLikeParams(1.2, 2, 8, 1), box)
	f := make([]vec.V, len(pos))
	s.LongRange(pos, q, f)
	const h = 2e-6
	for _, i := range []int{0, 6, 11} {
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

// TestTwoLevelTME exercises L = 2 (the 64³ configuration of Sec. VI.A,
// scaled down) and checks it against the reference.
func TestTwoLevelTME(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	box := vec.Cubic(8)
	pos, q := neutralRandomSystem(rng, 64, box)
	_, fRef := ewald.Reference(box, pos, q, nil, 1e-12)
	prm := Params{
		Alpha:  spme.AlphaFromRTol(1.2, 1e-4),
		Rc:     1.2,
		Order:  6,
		N:      [3]int{32, 32, 32},
		Levels: 2,
		M:      4,
		Gc:     8,
	}
	s := New(prm, box)
	f := make([]vec.V, len(pos))
	s.Coulomb(pos, q, nil, f)
	err := relForceError(f, fRef)
	t.Logf("L=2 relative force error: %.3e", err)
	if err > 8e-3 {
		t.Errorf("L=2 relative force error %g, want < 8e-3", err)
	}
}

// TestTMEWithExclusions verifies the exclusion pathway matches reference.
func TestTMEWithExclusions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 30, box)
	excl := topol.NewExclusions(len(pos))
	for g := 0; g+2 < len(pos); g += 3 {
		excl.AddGroup([]int{g, g + 1, g + 2})
	}
	_, fRef := ewald.Reference(box, pos, q, excl, 1e-12)
	s := New(paperLikeParams(1.2, 4, 8, 1), box)
	f := make([]vec.V, len(pos))
	s.Coulomb(pos, q, excl, f)
	if err := relForceError(f, fRef); err > 8e-3 {
		t.Errorf("relative force error with exclusions %g", err)
	}
}

// TestShellIdentities checks Eq. (4)–(5): the shells telescope back to the
// full long-range kernel, and the self-similarity g_{α,l}(r) =
// g_{α,1}(r/2^{l−1})/2^{l−1} holds.
func TestShellIdentities(t *testing.T) {
	alpha := 2.4
	for _, r := range []float64{0.1, 0.5, 1.0, 2.3} {
		lsum := 0.0
		L := 3
		for l := 1; l <= L; l++ {
			lsum += ShellExact(alpha, l, r)
		}
		top := math.Erf(alpha/math.Pow(2, float64(L))*r) / r
		want := math.Erf(alpha*r) / r
		if math.Abs(lsum+top-want) > 1e-14 {
			t.Errorf("r=%g: telescoping violated: %g vs %g", r, lsum+top, want)
		}
		for l := 2; l <= 4; l++ {
			scale := math.Pow(2, float64(l-1))
			a := ShellExact(alpha, l, r)
			b := ShellExact(alpha, 1, r/scale) / scale
			if math.Abs(a-b) > 1e-14 {
				t.Errorf("r=%g l=%d: self-similarity violated: %g vs %g", r, l, a, b)
			}
		}
	}
}

// TestShellApproxConvergence reproduces Fig. 3: the Gaussian-sum
// approximation error decreases rapidly with M.
func TestShellApproxConvergence(t *testing.T) {
	alpha := 2.751064
	g0 := ShellExact(alpha, 1, 0)
	var prevMax float64 = math.Inf(1)
	for m := 1; m <= 4; m++ {
		var maxErr float64
		for i := 0; i <= 200; i++ {
			r := float64(i) * 0.02 // αr up to ~11
			e := math.Abs(ShellApprox(alpha, 1, m, r)-ShellExact(alpha, 1, r)) / g0
			if e > maxErr {
				maxErr = e
			}
		}
		if maxErr >= prevMax {
			t.Errorf("M=%d: max error %g did not decrease (prev %g)", m, maxErr, prevMax)
		}
		prevMax = maxErr
	}
	// Paper Fig. 3(b): by M = 4 the relative error is far below 1e-4.
	if prevMax > 1e-4 {
		t.Errorf("M=4 max relative error %g, want < 1e-4", prevMax)
	}
}

func BenchmarkTMELongRange(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 1000, box)
	s := New(paperLikeParams(1.2, 4, 8, 1), box)
	f := make([]vec.V, len(pos))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LongRange(pos, q, f)
	}
}
