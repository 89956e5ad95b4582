package fpgafft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"tme4a/internal/fixpoint"
	"tme4a/internal/grid"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
)

func testUnit() (*Unit, *spme.Solver) {
	box := vec.Cubic(9.97270)
	s := spme.New(spme.Params{
		Alpha: spme.AlphaFromRTol(1.2, 1e-4) / 2, // top level α/2
		Rc:    1.2,
		Order: 6,
		N:     [3]int{16, 16, 16},
	}, box)
	return New(s.Green()), s
}

func TestCFFT16MatchesNaiveDFT(t *testing.T) {
	u, _ := testUnit()
	rng := rand.New(rand.NewSource(1))
	var x [Side]complex64
	for i := range x {
		x[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	want := make([]complex128, Side)
	for k := 0; k < Side; k++ {
		for n := 0; n < Side; n++ {
			theta := -2 * math.Pi * float64(k*n) / Side
			want[k] += complex128(x[n]) * cmplx.Exp(complex(0, theta))
		}
	}
	got := x
	u.cfft16(&got, false)
	for k := 0; k < Side; k++ {
		if cmplx.Abs(complex128(got[k])-want[k]) > 1e-4 {
			t.Fatalf("k=%d: got %v want %v", k, got[k], want[k])
		}
	}
}

func TestCFFT16RoundTrip(t *testing.T) {
	u, _ := testUnit()
	rng := rand.New(rand.NewSource(2))
	var x, orig [Side]complex64
	for i := range x {
		x[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		orig[i] = x[i]
	}
	u.cfft16(&x, false)
	u.cfft16(&x, true)
	for i := range x {
		if cmplx.Abs(complex128(x[i]-orig[i])) > 1e-5 {
			t.Fatalf("roundtrip mismatch at %d: %v vs %v", i, x[i], orig[i])
		}
	}
}

// TestSolveMatchesDoublePrecisionSPME: the float32 FPGA solve must match
// the float64 software solve to single-precision accuracy.
func TestSolveMatchesDoublePrecisionSPME(t *testing.T) {
	u, s := testUnit()
	rng := rand.New(rand.NewSource(3))
	q := grid.New(16, 16, 16)
	for i := range q.Data {
		q.Data[i] = rng.NormFloat64() * 0.5
	}
	want := grid.New(16, 16, 16)
	s.PotentialGridInto(want, q)
	got := u.Solve(q.Data)
	var maxAbs float64
	for _, v := range want.Data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	for i := range got {
		if math.Abs(got[i]-want.Data[i]) > 1e-5*maxAbs {
			t.Fatalf("idx %d: fpga %g vs spme %g (scale %g)", i, got[i], want.Data[i], maxAbs)
		}
	}
}

func TestSolveFixedQuantizes(t *testing.T) {
	u, _ := testUnit()
	rng := rand.New(rand.NewSource(4))
	inFmt := fixpoint.Format{Frac: 24}
	outFmt := fixpoint.Format{Frac: 14}
	q := fixpoint.NewGrid32(16, 16, 16, inFmt)
	data := make([]float64, 16*16*16)
	for i := range data {
		data[i] = rng.NormFloat64() * 0.3
	}
	q.QuantizeInto(data)
	phi := u.SolveFixed(q, outFmt)
	want := u.Solve(q.Float())
	for i := range want {
		if math.Abs(outFmt.Value(phi.Data[i])-want[i]) > 1/outFmt.Scale() {
			t.Fatalf("idx %d: %g vs %g", i, outFmt.Value(phi.Data[i]), want[i])
		}
	}
}

func TestSolveTime(t *testing.T) {
	if got := SolveTimeNs(); math.Abs(got-2112) > 1e-9 {
		t.Errorf("solve time %g ns, want 2112 (330 cycles @ 156.25 MHz)", got)
	}
}

func BenchmarkSolve16(b *testing.B) {
	u, _ := testUnit()
	rng := rand.New(rand.NewSource(1))
	q := make([]float64, Side*Side*Side)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Solve(q)
	}
}
