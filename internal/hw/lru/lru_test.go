package lru

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/fixpoint"
	"tme4a/internal/grid"
	"tme4a/internal/pmesh"
	"tme4a/internal/vec"
)

func randomSystem(rng *rand.Rand, n int, box vec.Box) ([]vec.V, []float64) {
	pos := make([]vec.V, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V{rng.Float64() * box.L[0], rng.Float64() * box.L[1], rng.Float64() * box.L[2]}
		q[i] = rng.NormFloat64() * 0.8
	}
	return pos, q
}

// TestChargeAssignMatchesFloat: the fixed-point LRU charge assignment must
// agree with the double-precision pmesh reference to quantization accuracy.
func TestChargeAssignMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(5)
	n := [3]int{16, 16, 16}
	pos, q := randomSystem(rng, 100, box)
	dp := DefaultDatapath()
	invH := [3]float64{16 / box.L[0], 16 / box.L[1], 16 / box.L[2]}

	fg := ChargeAssign(dp, n, invH, pos, q)
	m := pmesh.NewMesher(Order, n, box)
	want := grid.New(m.N[0], m.N[1], m.N[2])
	m.AssignTo(want, pos, q)

	var maxErr float64
	for i := range want.Data {
		if e := math.Abs(dp.Grid.Value(fg.Data[i]) - want.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	// Each grid point accumulates ≲100 quantized contributions; the error
	// stays within a few hundred ULPs of Q24.
	if maxErr > 500/dp.Grid.Scale() {
		t.Errorf("max CA error %g vs Q24 resolution %g", maxErr, 1/dp.Grid.Scale())
	}
	if maxErr == 0 {
		t.Error("suspiciously exact — fixed-point path probably not exercised")
	}
}

// TestInterpolateMatchesFloat: fixed-point BI forces/energy vs pmesh.
func TestInterpolateMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box := vec.Cubic(5)
	n := [3]int{16, 16, 16}
	pos, q := randomSystem(rng, 60, box)
	dp := DefaultDatapath()
	invH := [3]float64{16 / box.L[0], 16 / box.L[1], 16 / box.L[2]}

	// A synthetic potential grid with physically plausible magnitudes.
	phiF := grid.New(16, 16, 16)
	for i := range phiF.Data {
		phiF.Data[i] = rng.NormFloat64() * 50
	}
	phiQ := fixpoint.NewGrid32(16, 16, 16, dp.Pot)
	phiQ.QuantizeInto(phiF.Data)
	// Use the quantized grid as the float reference input so the comparison
	// isolates the datapath arithmetic.
	for i := range phiF.Data {
		phiF.Data[i] = dp.Pot.Value(phiQ.Data[i])
	}

	m := pmesh.NewMesher(Order, n, box)
	fWant := make([]vec.V, len(pos))
	eWant := m.Interpolate(phiF, pos, q, fWant)

	fGot := make([]vec.V, len(pos))
	eGot := Interpolate(dp, phiQ, invH, pos, q, fGot)

	var fScale float64
	for _, f := range fWant {
		fScale = math.Max(fScale, f.Norm())
	}
	for i := range fWant {
		if d := fGot[i].Sub(fWant[i]).Norm(); d > 1e-4*fScale+1e-3 {
			t.Fatalf("atom %d: force %v vs %v", i, fGot[i], fWant[i])
		}
	}
	if math.Abs(eGot-eWant) > 1e-4*math.Abs(eWant)+1e-3 {
		t.Errorf("energy %g vs %g", eGot, eWant)
	}
}

func TestChargeConservationFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := vec.Cubic(4)
	pos, q := randomSystem(rng, 50, box)
	dp := DefaultDatapath()
	fg := ChargeAssign(dp, [3]int{16, 16, 16}, [3]float64{4, 4, 4}, pos, q)
	var total float64
	for _, v := range fg.Data {
		total += dp.Grid.Value(v)
	}
	var want float64
	for _, qi := range q {
		want += qi
	}
	// Quantized weights per atom sum to 1 within 216 ULPs.
	if math.Abs(total-want) > float64(len(pos))*300/dp.Grid.Scale() {
		t.Errorf("total grid charge %g, want %g", total, want)
	}
}

func TestCycleModel(t *testing.T) {
	// 157 atoms split over 2 LRUs at 36 cycles each: 2,844 cycles
	// → 4.74 µs at 0.6 GHz per pass, ~9.5 µs CA+BI (paper: ~10 µs).
	if c := Cycles(157); c != 79*36 {
		t.Errorf("Cycles(157) = %d, want %d", c, 79*36)
	}
	tot := 2 * TimeNs(157, 0.6)
	if tot < 8000 || tot > 11000 {
		t.Errorf("CA+BI time %.0f ns, paper reports ~10 µs", tot)
	}
}
