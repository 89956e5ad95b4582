package pmesh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tme4a/internal/grid"
	"tme4a/internal/vec"
)

func randomSystem(rng *rand.Rand, n int, box vec.Box) ([]vec.V, []float64) {
	pos := make([]vec.V, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V{rng.Float64() * box.L[0], rng.Float64() * box.L[1], rng.Float64() * box.L[2]}
		q[i] = rng.NormFloat64()
	}
	return pos, q
}

// TestChargeConservation: the grid total equals the total charge —
// the partition-of-unity property of B-spline assignment.
func TestChargeConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := vec.NewBox(4, 5, 6)
	m := NewMesher(6, [3]int{16, 16, 32}, box)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pos, q := randomSystem(r, 20, box)
		g := grid.New(m.N[0], m.N[1], m.N[2])
		m.AssignTo(g, pos, q)
		var qt float64
		for _, qi := range q {
			qt += qi
		}
		return math.Abs(gridSum(g)-qt) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestAssignSingleChargeMoments(t *testing.T) {
	// A single unit charge: grid sum is 1 and the (periodic) first moment
	// of the spread charge matches the particle position, because central
	// B-splines are symmetric.
	box := vec.Cubic(8)
	m := NewMesher(6, [3]int{16, 16, 16}, box)
	pos := []vec.V{{3.21, 4.75, 1.03}}
	g := grid.New(m.N[0], m.N[1], m.N[2])
	m.AssignTo(g, pos, []float64{1})
	if math.Abs(gridSum(g)-1) > 1e-12 {
		t.Fatalf("sum %g", gridSum(g))
	}
	h := box.L[0] / 16
	for axis := 0; axis < 3; axis++ {
		var mom float64
		for iz := 0; iz < 16; iz++ {
			for iy := 0; iy < 16; iy++ {
				for ix := 0; ix < 16; ix++ {
					v := g.Data[ix+16*(iy+16*iz)]
					if v == 0 {
						continue
					}
					idx := [3]int{ix, iy, iz}[axis]
					// Unwrap relative to the particle to handle periodicity.
					d := float64(idx)*h - pos[0][axis]
					d -= box.L[axis] * math.Round(d/box.L[axis])
					mom += v * d
				}
			}
		}
		if math.Abs(mom) > 1e-12 {
			t.Errorf("axis %d: first moment %g, want 0", axis, mom)
		}
	}
}

func TestInterpolateConstantPotential(t *testing.T) {
	// A constant grid potential must interpolate to that constant and
	// produce zero force (partition of unity + derivative sum zero).
	box := vec.NewBox(3, 3, 3)
	m := NewMesher(6, [3]int{8, 8, 8}, box)
	phi := grid.New(8, 8, 8)
	for i := range phi.Data {
		phi.Data[i] = 2.5
	}
	rng := rand.New(rand.NewSource(2))
	pos, q := randomSystem(rng, 10, box)
	f := make([]vec.V, 10)
	e := m.Interpolate(phi, pos, q, f)
	var qt float64
	for _, qi := range q {
		qt += qi
	}
	if math.Abs(e-0.5*2.5*qt) > 1e-10 {
		t.Errorf("energy %g, want %g", e, 0.5*2.5*qt)
	}
	for i, fi := range f {
		if fi.Norm() > 1e-10 {
			t.Errorf("atom %d: nonzero force %v in constant potential", i, fi)
		}
	}
}

func TestForceIsNegativeGradientOfPotential(t *testing.T) {
	// For a fixed external potential grid, the interpolated force on a probe
	// charge must equal −q ∇φ with φ from PotentialAt (finite differences).
	box := vec.Cubic(5)
	m := NewMesher(6, [3]int{16, 16, 16}, box)
	rng := rand.New(rand.NewSource(3))
	phi := grid.New(16, 16, 16)
	for i := range phi.Data {
		phi.Data[i] = rng.NormFloat64()
	}
	for trial := 0; trial < 20; trial++ {
		r := vec.V{rng.Float64() * 5, rng.Float64() * 5, rng.Float64() * 5}
		qp := 1.7
		f := make([]vec.V, 1)
		m.Interpolate(phi, []vec.V{r}, []float64{qp}, f)
		const h = 1e-6
		for axis := 0; axis < 3; axis++ {
			rp, rm := r, r
			rp[axis] += h
			rm[axis] -= h
			fd := -(m.PotentialAt(phi, rp) - m.PotentialAt(phi, rm)) / (2 * h) * qp
			if math.Abs(f[0][axis]-fd) > 1e-5*math.Max(1, math.Abs(fd)) {
				t.Errorf("trial %d axis %d: force %g, fd %g", trial, axis, f[0][axis], fd)
			}
		}
	}
}

func TestAssignInterpolateRoundTripPair(t *testing.T) {
	// Direct check of the double-spline pair expansion: energy from
	// Assign → (identity grid op) → Interpolate equals
	// ½ Σ_{ij} q_i q_j Σ_m M(u_i−m) M(u_j−m) computed naively.
	box := vec.Cubic(4)
	n := [3]int{8, 8, 8}
	m := NewMesher(4, n, box)
	rng := rand.New(rand.NewSource(4))
	pos, q := randomSystem(rng, 5, box)
	g := grid.New(m.N[0], m.N[1], m.N[2])
	m.AssignTo(g, pos, q)
	e := m.Interpolate(g, pos, q, nil)
	// Naive: E = ½ Σ_m Q_m² since Φ = Q here.
	var want float64
	for _, v := range g.Data {
		want += 0.5 * v * v
	}
	if math.Abs(e-want) > 1e-10 {
		t.Errorf("pair energy %g, want %g", e, want)
	}
}

func TestNewMesherValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for odd order")
		}
	}()
	NewMesher(5, [3]int{8, 8, 8}, vec.Cubic(1))
}

func BenchmarkAssignP6(b *testing.B) {
	box := vec.Cubic(5)
	m := NewMesher(6, [3]int{32, 32, 32}, box)
	rng := rand.New(rand.NewSource(1))
	pos, q := randomSystem(rng, 1000, box)
	g := grid.New(32, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AssignTo(g, pos, q)
	}
}

func BenchmarkInterpolateP6(b *testing.B) {
	box := vec.Cubic(5)
	m := NewMesher(6, [3]int{32, 32, 32}, box)
	rng := rand.New(rand.NewSource(1))
	pos, q := randomSystem(rng, 1000, box)
	phi := grid.New(m.N[0], m.N[1], m.N[2])
	m.AssignTo(phi, pos, q)
	f := make([]vec.V, len(pos))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Interpolate(phi, pos, q, f)
	}
}
