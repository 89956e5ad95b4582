package nbpipe

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/nonbond"
	"tme4a/internal/r2tab"
	"tme4a/internal/topol"
	"tme4a/internal/units"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// erfcPair is the pipeline's Coulomb function pair at α = 2.3.
func erfcPair(r2 float64) (e, f float64) {
	r := math.Sqrt(r2)
	e = math.Erfc(2.3*r) / r
	return e, (e + 2.3*2/math.SqrtPi*math.Exp(-2.3*2.3*r2)) / r2
}

func TestTableAccuracy(t *testing.T) {
	// Segmented cubic interpolation at 128 entries/octave holds a smooth
	// radial kernel to 1e-7 relative all the way out to α·r = 3.45, where
	// erfc has fallen to 1e-6 of its contact value, and to ~1e-9 inside the
	// production cutoff (nonbond's TestKernelTableAccuracy) — the
	// hardware's "indistinguishable from analytic" design point with three
	// decades to spare.
	tab := r2tab.New(erfcPair, 1e-4, 2.25)
	rng := rand.New(rand.NewSource(1))
	var maxE, maxF float64
	for i := 0; i < 20000; i++ {
		r2 := 1e-4 + rng.Float64()*(2.25-1e-4)
		e, f := tab.Lookup(r2)
		we, wf := erfcPair(r2)
		maxE = math.Max(maxE, math.Abs(e-we)/math.Abs(we))
		maxF = math.Max(maxF, math.Abs(f-wf)/math.Abs(wf))
	}
	if maxE > 1e-7 || maxF > 1e-7 {
		t.Errorf("max relative table error E %g, F %g, want < 1e-7", maxE, maxF)
	}
}

func TestTableResolutionTradeoff(t *testing.T) {
	// Segments have a fixed width within an octave, so relative to their
	// argument they are twice as fine at the octave's top as at its bottom.
	// For a pure power law the relative error depends on that ratio alone,
	// and halving it must cut the error ~16× (h⁴ scaling of cubic
	// interpolation): the accuracy/memory trade of the segment count.
	power := func(r2 float64) (e, f float64) {
		e = 1 / (r2 * r2 * r2)
		return e, e / r2
	}
	tab := r2tab.New(power, 0.01, 2.25)
	errIn := func(lo, hi float64) float64 {
		var m float64
		for i := 0; i <= 4000; i++ {
			r2 := lo + (hi-lo)*float64(i)/4000
			e, _ := tab.Lookup(r2)
			we, _ := power(r2)
			m = math.Max(m, math.Abs(e-we)/we)
		}
		return m
	}
	// First and last of the 128 segments of the octave [1, 2).
	coarse := errIn(1, 1+1.0/128)
	fine := errIn(2-1.0/128, math.Nextafter(2, 0))
	ratio := coarse / fine
	if ratio < 8 || ratio > 32 {
		t.Errorf("resolution scaling %0.1f×, expected ~16× (errors %g, %g)", ratio, coarse, fine)
	}
}

func TestOutOfRangeFallsBack(t *testing.T) {
	ident := func(r2 float64) (e, f float64) { return r2, -r2 }
	tab := r2tab.New(ident, 0.01, 1)
	if e, f := tab.Lookup(5); e != 5 || f != -5 {
		t.Errorf("out-of-range lookup (%g, %g), want analytic (5, -5)", e, f)
	}
	if e, f := tab.Lookup(1e-6); e != 1e-6 || f != -1e-6 {
		t.Errorf("below-range lookup (%g, %g), want analytic", e, f)
	}
}

// TestPipelineMatchesAnalyticShortRange runs the full short-range force
// computation of a water box three ways — through the pipeline's tables,
// through the closed-form erfc/exp/LJ expressions, and through the
// production kernel (internal/nonbond, the same table for Coulomb with LJ
// in closed form) — and holds both table paths to 1e-9 of the analytic
// system force and energy.
func TestPipelineMatchesAnalyticShortRange(t *testing.T) {
	box := water.CubicBoxFor(216)
	sys := water.Build(6, 6, 6, box, 5)
	alpha, rc := 2.75, 1.0
	pipe := NewPipeline(alpha, rc)
	analytic := func(r2, qq, sigma2, eps float64) (fr, energy float64) {
		r := math.Sqrt(r2)
		energy = qq * math.Erfc(alpha*r) / r
		fr = (energy + qq*alpha*2/math.SqrtPi*math.Exp(-alpha*alpha*r2)) / r2
		s6 := sigma2 * sigma2 * sigma2 / (r2 * r2 * r2)
		return fr + 24*eps*(2*s6*s6-s6)/r2, energy + 4*eps*(s6*s6-s6)
	}

	fAnalytic := make([]vec.V, sys.N())
	eAnalytic := shortRange(analytic, sys.Box, sys.Pos, sys.Q, sys.LJ, rc, sys.Excl, fAnalytic)
	fTable := make([]vec.V, sys.N())
	eTable := shortRange(pipe.PairForce, sys.Box, sys.Pos, sys.Q, sys.LJ, rc, sys.Excl, fTable)
	fProd := make([]vec.V, sys.N())
	res := nonbond.Compute(sys.Box, sys.Pos, sys.Q, sys.LJ, alpha, rc, sys.Excl, fProd)

	for _, c := range []struct {
		name string
		f    []vec.V
		e    float64
	}{
		{"table pipeline", fTable, eTable},
		{"production kernel", fProd, res.ECoul + res.ELJ},
	} {
		var num, den float64
		for i := range fAnalytic {
			num += c.f[i].Sub(fAnalytic[i]).Norm2()
			den += fAnalytic[i].Norm2()
		}
		relF := math.Sqrt(num / den)
		relE := math.Abs(c.e-eAnalytic) / math.Abs(eAnalytic)
		t.Logf("%s: system force error %.2e, energy error %.2e vs analytic", c.name, relF, relE)
		if relF > 1e-9 {
			t.Errorf("%s force error %g vs analytic", c.name, relF)
		}
		if relE > 1e-9 {
			t.Errorf("%s energy %g vs analytic %g", c.name, c.e, eAnalytic)
		}
	}
}

// shortRange is a reference all-pairs short-range driver over a pair
// function with PairForce's signature (the machine model charges the
// pipeline's cycles via TimeNs).
func shortRange(pair func(r2, qq, sigma2, eps float64) (fr, energy float64), box vec.Box, pos []vec.V, q []float64, lj *nonbond.LJ, rc float64, excl *topol.Exclusions, f []vec.V) float64 {
	var energy float64
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
			var sigma2, eps float64
			if lj.Eps[i] != 0 && lj.Eps[j] != 0 {
				s := 0.5 * (lj.Sigma[i] + lj.Sigma[j])
				sigma2 = s * s
				eps = math.Sqrt(lj.Eps[i] * lj.Eps[j])
			}
			// The Coulomb functions are per unit charge product; the
			// conversion factor rides on qq, LJ is already absolute.
			fr, e := pair(r2, q[i]*q[j]*units.Coulomb, sigma2, eps)
			energy += e
			fv := d.Scale(fr)
			f[i] = f[i].Add(fv)
			f[j] = f[j].Sub(fv)
		}
	}
	return energy
}

func TestCycleModel(t *testing.T) {
	// 57,000 pairs/node (the paper's 80k-atom workload): 891 cycles
	// ≈ 1.1 µs — far below the GP bonded phase, which is why the paper's
	// bottleneck analysis points at the GP cores.
	if c := CyclesForPairs(57000); c != (57000+63)/64 {
		t.Errorf("cycles %d", c)
	}
	if ns := TimeNs(57000); ns < 1000 || ns > 1300 {
		t.Errorf("57k pairs take %.0f ns, expected ~1.1 µs", ns)
	}
}

func BenchmarkTableEval(b *testing.B) {
	tab := r2tab.New(erfcPair, 1e-4, 2.25)
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tab.Lookup(0.5 + float64(i%100)*0.01)
		}
	})
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			erfcPair(0.5 + float64(i%100)*0.01)
		}
	})
}
