package nonbond

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/topol"
	"tme4a/internal/units"
	"tme4a/internal/vec"
)

func randomSystem(rng *rand.Rand, n int, box vec.Box) ([]vec.V, []float64, *LJ) {
	pos := make([]vec.V, n)
	q := make([]float64, n)
	lj := &LJ{Sigma: make([]float64, n), Eps: make([]float64, n)}
	for i := range pos {
		pos[i] = vec.V{rng.Float64() * box.L[0], rng.Float64() * box.L[1], rng.Float64() * box.L[2]}
		q[i] = rng.NormFloat64() * 0.5
		lj.Sigma[i] = 0.3
		if i%3 == 0 {
			lj.Eps[i] = 0.65
		}
	}
	return pos, q, lj
}

// compute evaluates the short-range term over a one-shot skin-0 list.
func compute(box vec.Box, pos []vec.V, q []float64, lj *LJ, alpha, rc float64, excl *topol.Exclusions, f []vec.V) Result {
	v := NewVerletList(box, rc, 0)
	v.Rebuild(pos, excl)
	return v.Compute(pos, q, lj, alpha, f)
}

// naive recomputes the short-range interactions with a double loop.
func naive(box vec.Box, pos []vec.V, q []float64, lj *LJ, alpha, rc float64, excl *topol.Exclusions, f []vec.V) Result {
	var res Result
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			if excl.Excluded(i, j) {
				continue
			}
			d := box.MinImage(pos[i].Sub(pos[j]))
			r2 := d.Norm2()
			if r2 > rc*rc {
				continue
			}
			res.Pairs++
			r := math.Sqrt(r2)
			var fr float64
			if qq := q[i] * q[j]; qq != 0 {
				e := qq * math.Erfc(alpha*r) / r * units.Coulomb
				res.ECoul += e
				fr += (e + qq*units.Coulomb*alpha*twoOverSqrtPi*math.Exp(-alpha*alpha*r2)) / r2
			}
			if lj.Eps[i] != 0 && lj.Eps[j] != 0 {
				eps := math.Sqrt(lj.Eps[i] * lj.Eps[j])
				sig := 0.5 * (lj.Sigma[i] + lj.Sigma[j])
				sr6 := math.Pow(sig*sig/r2, 3)
				res.ELJ += 4 * eps * (sr6*sr6 - sr6)
				fr += 24 * eps * (2*sr6*sr6 - sr6) / r2
			}
			if f != nil {
				fv := d.Scale(fr)
				f[i] = f[i].Add(fv)
				f[j] = f[j].Sub(fv)
			}
		}
	}
	return res
}

func TestMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(4)
	pos, q, lj := randomSystem(rng, 120, box)
	excl := topol.NewExclusions(len(pos))
	for g := 0; g+2 < len(pos); g += 3 {
		excl.AddGroup([]int{g, g + 1, g + 2})
	}
	f1 := make([]vec.V, len(pos))
	f2 := make([]vec.V, len(pos))
	r1 := compute(box, pos, q, lj, 2.5, 1.1, excl, f1)
	r2 := naive(box, pos, q, lj, 2.5, 1.1, excl, f2)
	if r1.Pairs != r2.Pairs {
		t.Fatalf("pair counts %d vs %d", r1.Pairs, r2.Pairs)
	}
	if math.Abs(r1.ECoul-r2.ECoul) > 1e-9*math.Abs(r2.ECoul) {
		t.Errorf("ECoul %g vs %g", r1.ECoul, r2.ECoul)
	}
	if math.Abs(r1.ELJ-r2.ELJ) > 1e-9*math.Abs(r2.ELJ) {
		t.Errorf("ELJ %g vs %g", r1.ELJ, r2.ELJ)
	}
	for i := range f1 {
		if f1[i].Sub(f2[i]).Norm() > 1e-8*math.Max(1, f2[i].Norm()) {
			t.Fatalf("force %d: %v vs %v", i, f1[i], f2[i])
		}
	}
}

func TestLJMinimumLocation(t *testing.T) {
	// Two LJ-only particles: the force vanishes at r = 2^{1/6}σ and the
	// energy there is −ε.
	box := vec.Cubic(10)
	sigma, eps := 0.3, 0.7
	rmin := math.Pow(2, 1.0/6.0) * sigma
	pos := []vec.V{{5, 5, 5}, {5 + rmin, 5, 5}}
	lj := &LJ{Sigma: []float64{sigma, sigma}, Eps: []float64{eps, eps}}
	f := make([]vec.V, 2)
	res := compute(box, pos, []float64{0, 0}, lj, 0, 2, nil, f)
	if math.Abs(res.ELJ+eps) > 1e-12 {
		t.Errorf("LJ minimum energy %g, want %g", res.ELJ, -eps)
	}
	if f[0].Norm() > 1e-10 {
		t.Errorf("force at LJ minimum %v", f[0])
	}
}

func TestPlainCoulombAlphaZero(t *testing.T) {
	box := vec.Cubic(10)
	pos := []vec.V{{5, 5, 5}, {5.5, 5, 5}}
	q := []float64{1, -1}
	lj := &LJ{Sigma: []float64{0, 0}, Eps: []float64{0, 0}}
	res := compute(box, pos, q, lj, 0, 2, nil, nil)
	want := -units.Coulomb / 0.5
	if math.Abs(res.ECoul-want) > 1e-10*math.Abs(want) {
		t.Errorf("plain Coulomb %g, want %g", res.ECoul, want)
	}
}

func TestForceGradientConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box := vec.Cubic(3)
	pos, q, lj := randomSystem(rng, 20, box)
	f := make([]vec.V, len(pos))
	compute(box, pos, q, lj, 2.0, 1.2, nil, f)
	energy := func() float64 {
		r := compute(box, pos, q, lj, 2.0, 1.2, nil, nil)
		return r.ECoul + r.ELJ
	}
	const h = 1e-7
	for _, i := range []int{0, 7, 19} {
		for axis := 0; axis < 3; axis++ {
			p0 := pos[i]
			pos[i][axis] = p0[axis] + h
			ep := energy()
			pos[i][axis] = p0[axis] - h
			em := energy()
			pos[i] = p0
			fd := -(ep - em) / (2 * h)
			// Tolerate cutoff-crossing noise: pairs near rc make E only
			// C⁰-continuous. Use a loose relative tolerance.
			if math.Abs(f[i][axis]-fd) > 1e-3*math.Max(10, math.Abs(fd)) {
				t.Errorf("atom %d axis %d: F %.6f vs fd %.6f", i, axis, f[i][axis], fd)
			}
		}
	}
}

func TestExclusionsRespected(t *testing.T) {
	box := vec.Cubic(4)
	pos := []vec.V{{1, 1, 1}, {1.05, 1, 1}}
	q := []float64{1, 1}
	lj := &LJ{Sigma: []float64{0.3, 0.3}, Eps: []float64{0.6, 0.6}}
	excl := topol.NewExclusions(2)
	excl.Add(0, 1)
	res := compute(box, pos, q, lj, 2.0, 1.0, excl, nil)
	if res.Pairs != 0 || res.ECoul != 0 || res.ELJ != 0 {
		t.Errorf("excluded pair leaked: %+v", res)
	}
}

func BenchmarkComputeWater1536(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(2.49)
	pos, q, lj := randomSystem(rng, 1536, box)
	f := make([]vec.V, len(pos))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compute(box, pos, q, lj, 2.3, 1.0, nil, f)
	}
}
