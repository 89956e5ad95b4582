package ewald

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tme4a/internal/topol"
	"tme4a/internal/units"
	"tme4a/internal/vec"
)

// neutralRandomSystem returns n charges with zero total charge.
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

func totalEwald(box vec.Box, pos []vec.V, q []float64, excl *topol.Exclusions, alpha, rc float64, nc int, f []vec.V) float64 {
	e := RealSpace(box, pos, q, alpha, rc, excl, f)
	e += Reciprocal(box, pos, q, alpha, nc, f)
	e += SelfEnergy(q, alpha)
	e += ExclusionCorrection(box, pos, q, alpha, excl, f)
	return e
}

// TestMadelungNaCl reproduces the Madelung constant of rock salt
// (1.747564594...) from the 8-atom conventional cell.
func TestMadelungNaCl(t *testing.T) {
	const a = 1.0 // nm
	box := vec.Cubic(a)
	pos := []vec.V{
		{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5},
		{0.5, 0, 0}, {0, 0.5, 0}, {0, 0, 0.5}, {0.5, 0.5, 0.5},
	}
	q := []float64{1, 1, 1, 1, -1, -1, -1, -1}
	e, f := Reference(box, pos, q, nil, 1e-14)
	const madelung = 1.74756459463318
	want := -4 * madelung / (a / 2) * units.Coulomb
	if math.Abs(e-want) > 1e-8*math.Abs(want) {
		t.Errorf("cell energy %.12f, want %.12f", e, want)
	}
	// Forces vanish by symmetry at lattice sites.
	for i, fi := range f {
		if fi.Norm() > 1e-6 {
			t.Errorf("atom %d: force %v should vanish by symmetry", i, fi)
		}
	}
}

// TestAlphaIndependence: the total Ewald energy and forces must not depend
// on the splitting parameter (the defining identity of Ewald summation).
func TestAlphaIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := vec.NewBox(3, 3.5, 4)
	pos, q := neutralRandomSystem(rng, 24, box)
	type result struct {
		e float64
		f []vec.V
	}
	var results []result
	for _, alpha := range []float64{2.9, 3.4, 4.0} {
		// Convergence: erfc(α·rc) and reciprocal factor both tiny.
		rc := 1.45 // < min(L)/2
		nc := int(math.Ceil(5.2 * alpha * 4 / math.Pi))
		f := make([]vec.V, len(pos))
		e := totalEwald(box, pos, q, nil, alpha, rc, nc, f)
		results = append(results, result{e, f})
	}
	for k := 1; k < len(results); k++ {
		if math.Abs(results[k].e-results[0].e) > 1e-6*math.Abs(results[0].e) {
			t.Errorf("energy depends on alpha: %.10f vs %.10f", results[k].e, results[0].e)
		}
		for i := range pos {
			d := results[k].f[i].Sub(results[0].f[i]).Norm()
			if d > 1e-5*math.Max(1, results[0].f[i].Norm()) {
				t.Errorf("force %d depends on alpha: %v vs %v", i, results[k].f[i], results[0].f[i])
			}
		}
	}
}

// TestAlphaIndependenceWithExclusions repeats the identity with excluded
// intramolecular pairs, validating the exclusion correction term.
func TestAlphaIndependenceWithExclusions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box := vec.Cubic(3.2)
	pos, q := neutralRandomSystem(rng, 18, box)
	excl := topol.NewExclusions(len(pos))
	// Exclude triplets (0,1,2), (3,4,5), ... like rigid waters.
	for g := 0; g+2 < len(pos); g += 3 {
		excl.AddGroup([]int{g, g + 1, g + 2})
	}
	var e0 float64
	var f0 []vec.V
	for k, alpha := range []float64{2.8, 3.5} {
		rc := 1.55
		nc := int(math.Ceil(5.2 * alpha * 3.2 / math.Pi))
		f := make([]vec.V, len(pos))
		e := totalEwald(box, pos, q, excl, alpha, rc, nc, f)
		if k == 0 {
			e0, f0 = e, f
			continue
		}
		if math.Abs(e-e0) > 1e-6*math.Abs(e0) {
			t.Errorf("excluded energy depends on alpha: %.10f vs %.10f", e, e0)
		}
		for i := range pos {
			if f[i].Sub(f0[i]).Norm() > 1e-5*math.Max(1, f0[i].Norm()) {
				t.Errorf("excluded force %d depends on alpha", i)
			}
		}
	}
}

// TestForcesMatchEnergyGradient checks F = −∇E by central differences.
func TestForcesMatchEnergyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := vec.Cubic(3)
	pos, q := neutralRandomSystem(rng, 12, box)
	alpha, rc := 2.5, 1.4
	nc := 14
	f := make([]vec.V, len(pos))
	totalEwald(box, pos, q, nil, alpha, rc, nc, f)
	const h = 2e-6
	for _, i := range []int{0, 5, 11} {
		for axis := 0; axis < 3; axis++ {
			p0 := pos[i]
			pos[i][axis] = p0[axis] + h
			ep := totalEwald(box, pos, q, nil, alpha, rc, nc, nil)
			pos[i][axis] = p0[axis] - h
			em := totalEwald(box, pos, q, nil, alpha, rc, nc, nil)
			pos[i] = p0
			fd := -(ep - em) / (2 * h)
			if math.Abs(f[i][axis]-fd) > 2e-4*math.Max(1, math.Abs(fd)) {
				t.Errorf("atom %d axis %d: force %.8f, −dE/dx %.8f", i, axis, f[i][axis], fd)
			}
		}
	}
}

// TestForcesMatchEnergyGradientWithExclusions repeats the gradient identity
// including exclusion corrections.
func TestForcesMatchEnergyGradientWithExclusions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	box := vec.Cubic(3)
	pos, q := neutralRandomSystem(rng, 9, box)
	excl := topol.NewExclusions(len(pos))
	excl.AddGroup([]int{0, 1, 2})
	excl.AddGroup([]int{3, 4})
	alpha, rc := 2.5, 1.4
	nc := 14
	f := make([]vec.V, len(pos))
	totalEwald(box, pos, q, excl, alpha, rc, nc, f)
	const h = 2e-6
	for _, i := range []int{0, 1, 4, 8} {
		for axis := 0; axis < 3; axis++ {
			p0 := pos[i]
			pos[i][axis] = p0[axis] + h
			ep := totalEwald(box, pos, q, excl, alpha, rc, nc, nil)
			pos[i][axis] = p0[axis] - h
			em := totalEwald(box, pos, q, excl, alpha, rc, nc, nil)
			pos[i] = p0
			fd := -(ep - em) / (2 * h)
			if math.Abs(f[i][axis]-fd) > 2e-4*math.Max(1, math.Abs(fd)) {
				t.Errorf("atom %d axis %d: force %.8f, −dE/dx %.8f", i, axis, f[i][axis], fd)
			}
		}
	}
}

// TestNewtonThirdLaw: total force must vanish for the real-space and
// correction terms, and to summation accuracy for the reciprocal term.
func TestNewtonThirdLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	box := vec.Cubic(3.5)
	pos, q := neutralRandomSystem(rng, 40, box)
	_, f := Reference(box, pos, q, nil, 1e-12)
	var tot vec.V
	for _, fi := range f {
		tot = tot.Add(fi)
	}
	if tot.Norm() > 1e-7 {
		t.Errorf("net force %v, want ~0", tot)
	}
}

// TestTwoChargeEnergySign: opposite charges attract.
func TestTwoChargeEnergySign(t *testing.T) {
	box := vec.Cubic(10)
	pos := []vec.V{{5, 5, 5}, {5.5, 5, 5}}
	q := []float64{1, -1}
	e, f := Reference(box, pos, q, nil, 1e-12)
	// Dominated by the direct pair: E ≈ −ke/0.5 (periodic images correct
	// at the ~1% level in a 10 nm box).
	want := -units.Coulomb / 0.5
	if math.Abs(e-want) > 0.02*math.Abs(want) {
		t.Errorf("pair energy %g, want ≈ %g", e, want)
	}
	// Attraction: force on atom 0 points toward atom 1 (+x).
	if f[0][0] <= 0 || f[1][0] >= 0 {
		t.Errorf("forces not attractive: %v %v", f[0], f[1])
	}
}

// TestChooseParamsErrorFactors confirms the Kolafa–Perram factors are met.
func TestChooseParamsErrorFactors(t *testing.T) {
	box := vec.NewBox(4, 5, 6)
	p := ChooseParams(box, 1e-12, 0.5)
	if rf := math.Exp(-p.Alpha * p.Alpha * p.Rc * p.Rc); rf > 1e-12 {
		t.Errorf("real-space factor %g", rf)
	}
	arg := math.Pi * float64(p.Nc) / (p.Alpha * 6) // worst axis: longest L
	if kf := math.Exp(-arg * arg); kf > 1e-12 {
		t.Errorf("reciprocal factor %g", kf)
	}
}

// TestExclusionRemovesPairInteraction: for one excluded pair very close
// together, the energy must not blow up like 1/r.
func TestExclusionRemovesPairInteraction(t *testing.T) {
	box := vec.Cubic(6)
	pos := []vec.V{{3, 3, 3}, {3.001, 3, 3}, {1, 1, 1}, {5, 5, 5}}
	q := []float64{1, -1, 1, -1}
	excl := topol.NewExclusions(4)
	excl.Add(0, 1)
	e, _ := Reference(box, pos, q, excl, 1e-12)
	// Without the exclusion this would be ≈ −138935 kJ/mol from the
	// 0.001 nm pair; with it the energy stays modest.
	if math.Abs(e) > 1000 {
		t.Errorf("excluded close pair leaked into energy: %g", e)
	}
}

func BenchmarkReciprocalN100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 100, box)
	f := make([]vec.V, len(pos))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reciprocal(box, pos, q, 2.5, 12, f)
	}
}

func BenchmarkRealSpaceN1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(5)
	pos, q := neutralRandomSystem(rng, 1000, box)
	f := make([]vec.V, len(pos))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RealSpace(box, pos, q, 2.5, 1.2, nil, f)
	}
}

// TestReferenceShortCutoffBranch validates the parameter set used for
// large systems (r_c = L/3 with a cell list and a larger reciprocal
// cutoff): it must give the same energies and forces as the r_c = L/2
// direct path, since the total Ewald sum is parameter-independent.
func TestReferenceShortCutoffBranch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	box := vec.Cubic(3.6)
	pos, q := neutralRandomSystem(rng, 40, box)

	run := func(rcFrac float64) (float64, []vec.V) {
		p := ChooseParams(box, 1e-12, rcFrac)
		f := make([]vec.V, len(pos))
		e := RealSpace(box, pos, q, p.Alpha, p.Rc, nil, f)
		e += Reciprocal(box, pos, q, p.Alpha, p.Nc, f)
		e += SelfEnergy(q, p.Alpha)
		return e, f
	}
	eHalf, fHalf := run(0.5)
	eThird, fThird := run(1.0 / 3.0)
	if math.Abs(eHalf-eThird) > 1e-7*math.Abs(eHalf) {
		t.Errorf("energies differ between cutoff branches: %.10f vs %.10f", eHalf, eThird)
	}
	for i := range fHalf {
		if fHalf[i].Sub(fThird[i]).Norm() > 1e-6*math.Max(1, fHalf[i].Norm()) {
			t.Fatalf("force %d differs between branches: %v vs %v", i, fHalf[i], fThird[i])
		}
	}
}

// TestParallelBitwise: Reciprocal's energy and forces, and Reference's,
// are bitwise equal at GOMAXPROCS 1, 2 and 4. The box holds 512 atoms, so
// par's loops (default grain 64) run more than one worker and the race
// detector sees the parallel bodies; every other test box here is below
// two grains and runs them on one.
func TestParallelBitwise(t *testing.T) {
	box := vec.Cubic(2.4)
	pos, q := neutralRandomSystem(rand.New(rand.NewSource(17)), 512, box)
	type result struct {
		recip, ref   float64
		recipF, refF []vec.V
	}
	run := func(procs int) (r result) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r.recipF = make([]vec.V, len(pos))
		r.recip = Reciprocal(box, pos, q, 3.1, 6, r.recipF)
		r.ref, r.refF = Reference(box, pos, q, nil, 1e-6)
		return r
	}
	want := run(1)
	if want.recip == 0 || want.ref == 0 {
		t.Fatal("zero energy; the system exercises nothing")
	}
	for _, procs := range []int{2, 4} {
		got := run(procs)
		if !sameBits(got.recip, want.recip) || !sameBits(got.ref, want.ref) {
			t.Fatalf("GOMAXPROCS %d: energies %.17g, %.17g; at 1: %.17g, %.17g",
				procs, got.recip, got.ref, want.recip, want.ref)
		}
		for i := range pos {
			if got.recipF[i] != want.recipF[i] || got.refF[i] != want.refF[i] {
				t.Fatalf("GOMAXPROCS %d: atom %d forces %v, %v; at 1: %v, %v",
					procs, i, got.recipF[i], got.refF[i], want.recipF[i], want.refF[i])
			}
		}
	}
}
