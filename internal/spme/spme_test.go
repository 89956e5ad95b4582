package spme

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tme4a/internal/ewald"
	"tme4a/internal/grid"
	"tme4a/internal/par"
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

// relForceError is the paper's error metric:
// sqrt(Σ|F−F_ref|² / Σ|F_ref|²).
func relForceError(f, ref []vec.V) float64 {
	var num, den float64
	for i := range f {
		num += f[i].Sub(ref[i]).Norm2()
		den += ref[i].Norm2()
	}
	return math.Sqrt(num / den)
}

func TestAlphaFromRTol(t *testing.T) {
	for _, rc := range []float64{1.0, 1.25, 1.5} {
		a := AlphaFromRTol(rc, 1e-4)
		if math.Abs(math.Erfc(a*rc)-1e-4) > 1e-9 {
			t.Errorf("rc=%g: erfc(α·rc) = %g", rc, math.Erfc(a*rc))
		}
		// The paper quotes α·rc ≈ 2.751064 for ewald-rtol = 1e-4.
		if math.Abs(a*rc-2.751064) > 1e-5 {
			t.Errorf("rc=%g: α·rc = %.6f, want 2.751064", rc, a*rc)
		}
	}
}

func TestSPMEMatchesEwaldReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 64, box)
	eRef, fRef := ewald.Reference(box, pos, q, nil, 1e-12)

	s := New(Params{Alpha: AlphaFromRTol(1.2, 1e-4), Rc: 1.2, Order: 6, N: [3]int{32, 32, 32}}, box)
	f := make([]vec.V, len(pos))
	e := s.Coulomb(pos, q, nil, f)

	// erfc(α·rc) = 1e-4 sets the truncation floor; a few 1e-4 relative
	// force error is the expected operating point (paper Table 1).
	if err := relForceError(f, fRef); err > 4e-4 {
		t.Errorf("relative force error %g, want < 4e-4", err)
	}
	if math.Abs(e-eRef) > 2e-4*math.Abs(eRef) {
		t.Errorf("energy %.8f, reference %.8f", e, eRef)
	}
}

func TestSPMEWithExclusionsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 30, box)
	excl := topol.NewExclusions(len(pos))
	for g := 0; g+2 < len(pos); g += 3 {
		excl.AddGroup([]int{g, g + 1, g + 2})
	}
	eRef, fRef := ewald.Reference(box, pos, q, excl, 1e-12)
	s := New(Params{Alpha: AlphaFromRTol(1.2, 1e-4), Rc: 1.2, Order: 6, N: [3]int{32, 32, 32}}, box)
	f := make([]vec.V, len(pos))
	e := s.Coulomb(pos, q, excl, f)
	if err := relForceError(f, fRef); err > 5e-4 {
		t.Errorf("relative force error %g, want < 5e-4", err)
	}
	if math.Abs(e-eRef) > 5e-4*math.Abs(eRef) {
		t.Errorf("energy %.8f, reference %.8f", e, eRef)
	}
}

// TestErrorDecreasesWithGrid: refining the mesh at fixed α must reduce the
// force error (until real-space truncation dominates).
func TestErrorDecreasesWithGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 48, box)
	_, fRef := ewald.Reference(box, pos, q, nil, 1e-12)
	var prev float64 = math.Inf(1)
	for _, n := range []int{16, 32} {
		s := New(Params{Alpha: AlphaFromRTol(1.4, 1e-5), Rc: 1.4, Order: 6, N: [3]int{n, n, n}}, box)
		f := make([]vec.V, len(pos))
		s.Coulomb(pos, q, nil, f)
		err := relForceError(f, fRef)
		if err >= prev {
			t.Errorf("N=%d: error %g did not decrease (prev %g)", n, err, prev)
		}
		prev = err
	}
}

// TestRecipForceGradient checks the mesh force against finite differences
// of the mesh energy.
func TestRecipForceGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	box := vec.Cubic(3)
	pos, q := neutralRandomSystem(rng, 10, box)
	s := New(Params{Alpha: 2.2, Rc: 1.2, Order: 6, N: [3]int{16, 16, 16}}, box)
	f := make([]vec.V, len(pos))
	s.MeshEnergy(pos, q, f)
	const h = 2e-6
	for _, i := range []int{0, 4, 9} {
		for axis := 0; axis < 3; axis++ {
			p0 := pos[i]
			pos[i][axis] = p0[axis] + h
			ep := s.MeshEnergy(pos, q, nil)
			pos[i][axis] = p0[axis] - h
			em := s.MeshEnergy(pos, q, nil)
			pos[i] = p0
			fd := -(ep - em) / (2 * h)
			if math.Abs(f[i][axis]-fd) > 1e-4*math.Max(1, math.Abs(fd)) {
				t.Errorf("atom %d axis %d: F %.8f vs −dE/dx %.8f", i, axis, f[i][axis], fd)
			}
		}
	}
}

// TestPotentialGridLinearity: the mesh solve is a linear operator.
func TestPotentialGridLinearity(t *testing.T) {
	box := vec.Cubic(3)
	s := New(Params{Alpha: 2.0, Rc: 1.0, Order: 4, N: [3]int{8, 8, 8}}, box)
	rng := rand.New(rand.NewSource(5))
	a := grid.New(s.Mesher.N[0], s.Mesher.N[1], s.Mesher.N[2])
	s.Mesher.AssignTo(a, []vec.V{{1, 1, 1}}, []float64{1})
	b := grid.New(s.Mesher.N[0], s.Mesher.N[1], s.Mesher.N[2])
	s.Mesher.AssignTo(b, []vec.V{{2, 0.5, 1.7}}, []float64{-1})
	sum := grid.New(a.N[0], a.N[1], a.N[2])
	for i := range sum.Data {
		sum.Data[i] = a.Data[i] + b.Data[i]
	}
	pa := s.PotentialGrid(a)
	pb := s.PotentialGrid(b)
	ps := s.PotentialGrid(sum)
	for i := range ps.Data {
		if math.Abs(ps.Data[i]-(pa.Data[i]+pb.Data[i])) > 1e-9 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
	_ = rng
}

// TestDCModeRemoved: a lone charge's grid potential has zero mean
// (tinfoil boundary condition).
func TestDCModeRemoved(t *testing.T) {
	box := vec.Cubic(3)
	s := New(Params{Alpha: 2.0, Rc: 1.0, Order: 6, N: [3]int{16, 16, 16}}, box)
	qg := grid.New(s.Mesher.N[0], s.Mesher.N[1], s.Mesher.N[2])
	s.Mesher.AssignTo(qg, []vec.V{{1.5, 1.5, 1.5}}, []float64{1})
	phi := s.PotentialGrid(qg)
	var sum float64
	for _, v := range phi.Data {
		sum += v
	}
	if math.Abs(sum) > 1e-8 {
		t.Errorf("grid potential mean %g, want 0", sum/float64(phi.Len()))
	}
}

func BenchmarkSPMERecip32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(4)
	pos, q := neutralRandomSystem(rng, 1000, box)
	s := New(Params{Alpha: 2.3, Rc: 1.2, Order: 6, N: [3]int{32, 32, 32}}, box)
	f := make([]vec.V, len(pos))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MeshEnergy(pos, q, f)
	}
}

// concurrentSolve is the par job of TestPotentialGridIntoConcurrent: chunk
// i solves q[i] into phi[i] on the one shared solver.
type concurrentSolve struct {
	s      *Solver
	q, phi []*grid.G
}

func (c concurrentSolve) solve(i int) { c.s.PotentialGridInto(c.phi[i], c.q[i]) }

// TestPotentialGridIntoConcurrent has two goroutines each run a par loop
// whose chunks call PotentialGridInto on one shared solver, at GOMAXPROCS
// 1, 2 and 4. Each solve's FFT runs par loops of its own, and a caller
// waiting on one of those helps with the oldest open phase, which may be
// the other goroutine's loop: a solve that held a solver-wide lock across
// its FFT would then wait on itself, and a scratch shared without one
// would race (the race detector runs this). Every result must equal the
// serial solve bit for bit, within a deadline.
func TestPotentialGridIntoConcurrent(t *testing.T) {
	s := New(Params{Alpha: 2.0, Rc: 1.0, Order: 6, N: [3]int{16, 16, 16}}, vec.Cubic(3))
	rng := rand.New(rand.NewSource(6))
	const (
		callers = 2
		chunks  = 6
		rounds  = 20
	)
	q := make([]*grid.G, chunks)
	want := make([]*grid.G, chunks)
	for i := range q {
		q[i] = grid.New(16, 16, 16)
		for k := range q[i].Data {
			q[i].Data[k] = rng.NormFloat64()
		}
		want[i] = s.PotentialGrid(q[i])
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		jobs := make([]concurrentSolve, callers)
		for c := range jobs {
			jobs[c] = concurrentSolve{s: s, q: q, phi: make([]*grid.G, chunks)}
			for i := range jobs[c].phi {
				jobs[c].phi[i] = grid.New(16, 16, 16)
			}
		}
		done := make(chan struct{}, callers)
		for _, job := range jobs {
			go func() {
				for r := 0; r < rounds; r++ {
					par.For(chunks, job, concurrentSolve.solve)
				}
				done <- struct{}{}
			}()
		}
		deadline := time.After(time.Minute)
		for range jobs {
			select {
			case <-done:
			case <-deadline:
				t.Fatalf("GOMAXPROCS %d: concurrent PotentialGridInto calls still running after a minute (deadlock)", procs)
			}
		}
		runtime.GOMAXPROCS(prev)
		for c, job := range jobs {
			for i := range want {
				for k, v := range want[i].Data {
					if job.phi[i].Data[k] != v {
						t.Fatalf("GOMAXPROCS %d, caller %d, chunk %d: phi[%d] = %v, serial %v", procs, c, i, k, job.phi[i].Data[k], v)
					}
				}
			}
		}
	}
}
