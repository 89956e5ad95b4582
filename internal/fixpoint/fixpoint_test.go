package fixpoint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizeRoundTrip(t *testing.T) {
	f := Q24
	rng := rand.New(rand.NewSource(1))
	prop := func(raw float64) bool {
		v := math.Mod(raw, float64(math.MaxInt32)/f.Scale())
		q := f.Value(f.Quantize(v))
		return math.Abs(q-v) <= 0.5/f.Scale()+1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeSaturates(t *testing.T) {
	f := Format{Frac: 24}
	if f.Quantize(1e12) != math.MaxInt32 {
		t.Error("positive saturation failed")
	}
	if f.Quantize(-1e12) != math.MinInt32 {
		t.Error("negative saturation failed")
	}
}

func TestSatAdd32(t *testing.T) {
	if SatAdd32(math.MaxInt32, 1) != math.MaxInt32 {
		t.Error("positive overflow not saturated")
	}
	if SatAdd32(math.MinInt32, -1) != math.MinInt32 {
		t.Error("negative overflow not saturated")
	}
	if SatAdd32(5, -7) != -2 {
		t.Error("plain addition wrong")
	}
}

func TestMulShiftMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := Q24
	for trial := 0; trial < 500; trial++ {
		a := rng.Float64()*4 - 2
		b := rng.Float64()*2 - 1
		qa := f.Quantize(a)
		qb := f.Quantize(b)
		got := f.Value(MulShift(qa, qb, f.Frac))
		want := f.Value(qa) * f.Value(qb)
		if math.Abs(got-want) > 1/f.Scale() {
			t.Fatalf("a=%g b=%g: got %g want %g", a, b, got, want)
		}
	}
}

func TestMulShiftRoundsNegative(t *testing.T) {
	// −3 × 1 >> 1 rounds to −2 (nearest, away from zero on tie): (−3+1)>>1 = −2...
	// with our symmetric rounding: |−3|+1 = 4 >> 1 = 2 → −2.
	if got := MulShift(-3, 1, 1); got != -2 {
		t.Errorf("MulShift(-3,1,1) = %d, want -2", got)
	}
	if got := MulShift(3, 1, 1); got != 2 {
		t.Errorf("MulShift(3,1,1) = %d, want 2", got)
	}
}

func TestAcc64(t *testing.T) {
	a := Acc64{Fmt: Q24}
	for i := 0; i < 1000; i++ {
		a.Add(Q24.Quantize(0.001))
	}
	if math.Abs(a.Value()-1.0) > 1e-4 {
		t.Errorf("accumulated %g, want ~1.0", a.Value())
	}
}

func TestGrid32AccumAndWrap(t *testing.T) {
	g := NewGrid32(4, 4, 4, Format{Frac: 16})
	g.AccumAt(-1, 5, 4, g.Fmt.Quantize(1.5))
	g.AccumAt(3, 1, 0, g.Fmt.Quantize(0.25))
	got := g.Fmt.Value(g.Data[g.Idx(3, 1, 0)])
	if math.Abs(got-1.75) > 1e-4 {
		t.Errorf("wrapped accumulation %g, want 1.75", got)
	}
}

func TestGrid32QuantizeInto(t *testing.T) {
	g := NewGrid32(2, 2, 2, Format{Frac: 20})
	data := []float64{0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8}
	g.QuantizeInto(data)
	back := g.Float()
	for i := range data {
		if math.Abs(back[i]-data[i]) > 1/g.Fmt.Scale() {
			t.Fatalf("index %d: %g vs %g", i, back[i], data[i])
		}
	}
}

func TestFormatString(t *testing.T) {
	if Q24.String() != "Q7.24" {
		t.Errorf("format string %q", Q24.String())
	}
}
