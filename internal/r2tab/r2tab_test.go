package r2tab

import (
	"math"
	"math/rand"
	"testing"
)

// erfcPair is the screened-Coulomb function pair at α = 3.12 with unit
// prefactor: E = erfc(α√s)/√s and F = −2 dE/ds.
func erfcPair(s float64) (e, f float64) {
	const alpha = 3.12
	r := math.Sqrt(s)
	e = math.Erfc(alpha*r) / r
	f = (e + alpha*2/math.SqrtPi*math.Exp(-alpha*alpha*s)) / s
	return e, f
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func TestEntryCountAndRange(t *testing.T) {
	// [2⁻¹⁰, 1] is ten octaves plus the segment that starts at 1.0, which a
	// pair at exactly the cutoff falls in.
	tab := New(erfcPair, 1.0/1024, 1.0)
	if got, want := tab.Entries(), 10*SegmentsPerOctave+1; got != want {
		t.Errorf("%d entries, want %d", got, want)
	}
	// sMin inside a segment: the table starts at that segment's lower edge.
	tab = New(erfcPair, 0.3, 0.4)
	for _, s := range []float64{0.3, 0.35, 0.4} {
		e, f := tab.Lookup(s)
		we, wf := erfcPair(s)
		if e == we && f == wf {
			t.Errorf("s=%g answered analytically, want the table", s)
		}
		if relErr(e, we) > 1e-8 || relErr(f, wf) > 1e-8 {
			t.Errorf("s=%g: table (%g, %g) vs analytic (%g, %g)", s, e, f, we, wf)
		}
	}
	if n := New(erfcPair, 1, 0.5).Entries(); n != 0 {
		t.Errorf("inverted range built %d entries, want 0", n)
	}
}

// TestContinuousAcrossEverySeam: each cubic passes through its segment's
// endpoints, so at every seam — segment and octave boundaries alike — the
// left segment's polynomial at its right edge equals the right segment's
// value to rounding, and the largest argument below the seam is within
// rounding plus one slope-ulp of the seam value.
func TestContinuousAcrossEverySeam(t *testing.T) {
	tab := New(erfcPair, 1.0/1024, 1.0)
	for k := 0; k+1 < len(tab.ent); k++ {
		s0 := math.Float64frombits(uint64(tab.base+k) << shift)
		s1 := math.Float64frombits(uint64(tab.base+k+1) << shift)
		d := s1 - s0
		c := tab.ent[k]
		eEdge := c.e[0] + d*(c.e[1]+d*(c.e[2]+d*c.e[3]))
		fEdge := c.f[0] + d*(c.f[1]+d*(c.f[2]+d*c.f[3]))
		next := tab.ent[k+1]
		if relErr(eEdge, next.e[0]) > 1e-14 || relErr(fEdge, next.f[0]) > 1e-14 {
			t.Fatalf("seam %d at s=%g: left edge (%.17g, %.17g), right value (%.17g, %.17g)",
				k, s1, eEdge, fEdge, next.e[0], next.f[0])
		}
		eBelow, fBelow := tab.Lookup(math.Nextafter(s1, 0))
		eAt, fAt := tab.Lookup(s1)
		if eAt != next.e[0] || fAt != next.f[0] {
			t.Fatalf("seam %d: Lookup at the segment start is not its constant term", k)
		}
		if relErr(eBelow, eAt) > 1e-13 || relErr(fBelow, fAt) > 1e-13 {
			t.Fatalf("seam %d at s=%g: jump from (%.17g, %.17g) to (%.17g, %.17g)",
				k, s1, eBelow, fBelow, eAt, fAt)
		}
	}
}

func TestOutOfRangeIsAnalytic(t *testing.T) {
	tab := New(erfcPair, 1.0/1024, 1.0)
	for _, s := range []float64{1e-9, 1.0 / 1025, 1.0 + 1.0/64, 7, math.Inf(1)} {
		e, f := tab.Lookup(s)
		we, wf := erfcPair(s)
		if e != we || f != wf {
			t.Errorf("s=%g outside the table: (%g, %g), want analytic (%g, %g)", s, e, f, we, wf)
		}
	}
	// Negative and NaN arguments index far outside the table and reach the
	// analytic function too, which answers NaN.
	for _, s := range []float64{-0.5, math.NaN()} {
		if e, _ := tab.Lookup(s); !math.IsNaN(e) {
			t.Errorf("s=%g: %g, want NaN from the analytic fallback", s, e)
		}
	}
}

// TestTableAccuracy: segmented cubic interpolation at 128 entries per
// octave holds a smooth radial kernel to 1e-7 relative all the way out to
// α·r = 3.45, where erfc has fallen to 1e-6 of its contact value, and to
// ~1e-9 inside the production cutoff (nonbond's TestKernelTableAccuracy) —
// the hardware's "indistinguishable from analytic" design point with three
// decades to spare.
func TestTableAccuracy(t *testing.T) {
	const alpha = 2.3
	pair := func(s float64) (e, f float64) {
		r := math.Sqrt(s)
		e = math.Erfc(alpha*r) / r
		return e, (e + alpha*2/math.SqrtPi*math.Exp(-alpha*alpha*s)) / s
	}
	tab := New(pair, 1e-4, 2.25)
	rng := rand.New(rand.NewSource(1))
	var maxE, maxF float64
	for i := 0; i < 20000; i++ {
		s := 1e-4 + rng.Float64()*(2.25-1e-4)
		e, f := tab.Lookup(s)
		we, wf := pair(s)
		maxE = math.Max(maxE, relErr(e, we))
		maxF = math.Max(maxF, relErr(f, wf))
	}
	if maxE > 1e-7 || maxF > 1e-7 {
		t.Errorf("max relative table error E %g, F %g, want < 1e-7", maxE, maxF)
	}
}

// TestTableResolutionTradeoff: segments have a fixed width within an
// octave, so relative to their argument they are twice as fine at the
// octave's top as at its bottom. For a pure power law the relative error
// depends on that ratio alone, and halving it must cut the error ~16× (h⁴
// scaling of cubic interpolation): the accuracy/memory trade of the segment
// count.
func TestTableResolutionTradeoff(t *testing.T) {
	power := func(s float64) (e, f float64) {
		e = 1 / (s * s * s)
		return e, e / s
	}
	tab := New(power, 0.01, 2.25)
	errIn := func(lo, hi float64) float64 {
		var m float64
		for i := 0; i <= 4000; i++ {
			s := lo + (hi-lo)*float64(i)/4000
			e, _ := tab.Lookup(s)
			we, _ := power(s)
			m = math.Max(m, relErr(e, we))
		}
		return m
	}
	// First and last of the 128 segments of the octave [1, 2).
	coarse := errIn(1, 1+1.0/SegmentsPerOctave)
	fine := errIn(2-1.0/SegmentsPerOctave, math.Nextafter(2, 0))
	if ratio := coarse / fine; ratio < 8 || ratio > 32 {
		t.Errorf("resolution scaling %0.1f×, expected ~16× (errors %g, %g)", ratio, coarse, fine)
	}
}

func TestNewRejectsBadRange(t *testing.T) {
	for _, r := range [][2]float64{{0, 1}, {-1, 1}, {math.NaN(), 1}, {0.1, math.Inf(1)}, {0.1, math.NaN()}, {math.Inf(1), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%g, %g) did not panic", r[0], r[1])
				}
			}()
			New(erfcPair, r[0], r[1])
		}()
	}
}

func BenchmarkLookup(b *testing.B) {
	tab := New(erfcPair, 1.0/1024, 1.0)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = 0.05 + 0.9*rng.Float64()
	}
	var sink float64
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, f := tab.Lookup(xs[i&1023])
			sink += e + f
		}
	})
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, f := erfcPair(xs[i&1023])
			sink += e + f
		}
	})
	_ = sink
}
