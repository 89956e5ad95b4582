package analysis

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/vec"
)

// TestRDFIdealGasIsFlat: for uncorrelated uniform points g(r) ≈ 1.
func TestRDFIdealGasIsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(6)
	n := 4000
	pos := make([]vec.V, n)
	sites := make([]int, n)
	for i := range pos {
		pos[i] = vec.V{rng.Float64() * 6, rng.Float64() * 6, rng.Float64() * 6}
		sites[i] = i
	}
	r := NewRDF(2.0, 40)
	r.AddFrame(box, pos, sites, sites)
	rs, g := r.G()
	for b := range rs {
		if rs[b] < 0.3 {
			continue // too few pairs per bin for statistics
		}
		if math.Abs(g[b]-1) > 0.15 {
			t.Errorf("ideal gas g(%.2f) = %.3f, want ~1", rs[b], g[b])
		}
	}
}

// TestRDFLatticePeaks: a simple cubic lattice has its first g(r) peak at
// the lattice constant.
func TestRDFLatticePeaks(t *testing.T) {
	const a = 0.5
	const side = 8
	box := vec.Cubic(side * a)
	var pos []vec.V
	var sites []int
	for z := 0; z < side; z++ {
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				sites = append(sites, len(pos))
				pos = append(pos, vec.V{(float64(x) + 0.5) * a, (float64(y) + 0.5) * a, (float64(z) + 0.5) * a})
			}
		}
	}
	r := NewRDF(1.2, 120)
	r.AddFrame(box, pos, sites, sites)
	peak, height := r.FirstPeak(0.2)
	if math.Abs(peak-a) > 0.02 {
		t.Errorf("lattice first peak at %.3f nm, want %.3f", peak, a)
	}
	if height < 5 {
		t.Errorf("lattice peak height %.1f suspiciously low", height)
	}
}

// TestRDFCrossSets: A–B RDF of two interleaved lattices peaks at the
// nearest A–B distance.
func TestRDFCrossSets(t *testing.T) {
	const a = 0.6
	const side = 6
	box := vec.Cubic(side * a)
	var pos []vec.V
	var sa, sb []int
	for z := 0; z < side; z++ {
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				sa = append(sa, len(pos))
				pos = append(pos, vec.V{float64(x) * a, float64(y) * a, float64(z) * a})
				sb = append(sb, len(pos))
				pos = append(pos, vec.V{(float64(x) + 0.5) * a, (float64(y) + 0.5) * a, (float64(z) + 0.5) * a})
			}
		}
	}
	r := NewRDF(1.0, 100)
	r.AddFrame(box, pos, sa, sb)
	peak, _ := r.FirstPeak(0.1)
	want := a * math.Sqrt(3) / 2 // body-centre distance
	if math.Abs(peak-want) > 0.02 {
		t.Errorf("cross peak at %.3f, want %.3f", peak, want)
	}
}

// TestMSDBallistic: particles moving at constant velocity have
// MSD = v²t², and the unwrapping must survive boundary crossings.
func TestMSDBallistic(t *testing.T) {
	box := vec.Cubic(2)
	n := 50
	rng := rand.New(rand.NewSource(2))
	pos := make([]vec.V, n)
	vel := make([]vec.V, n)
	for i := range pos {
		pos[i] = vec.V{rng.Float64() * 2, rng.Float64() * 2, rng.Float64() * 2}
		vel[i] = vec.V{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	m := NewMSD(box, pos)
	const dt = 0.05
	var v2 float64
	for i := range vel {
		v2 += vel[i].Norm2()
	}
	v2 /= float64(n)
	for s := 1; s <= 40; s++ {
		for i := range pos {
			pos[i] = box.Wrap(pos[i].Add(vel[i].Scale(dt)))
		}
		m.AddFrame(pos)
		tNow := float64(s) * dt
		want := v2 * tNow * tNow
		got := m.Samples[len(m.Samples)-1]
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("step %d: MSD %.6f, want %.6f", s, got, want)
		}
	}
}

// TestMSDDiffusionSlope: a random walk's fitted D matches its step
// variance (MSD = 6Dt with D = var/(6·dt) per axis... D = σ²·3/(6·dt)).
func TestMSDDiffusionSlope(t *testing.T) {
	box := vec.Cubic(5)
	rng := rand.New(rand.NewSource(3))
	n := 400
	pos := make([]vec.V, n)
	for i := range pos {
		pos[i] = vec.V{rng.Float64() * 5, rng.Float64() * 5, rng.Float64() * 5}
	}
	m := NewMSD(box, pos)
	const sigma = 0.02
	const dt = 1.0
	for s := 0; s < 200; s++ {
		for i := range pos {
			pos[i] = box.Wrap(pos[i].Add(vec.V{
				rng.NormFloat64() * sigma, rng.NormFloat64() * sigma, rng.NormFloat64() * sigma}))
		}
		m.AddFrame(pos)
	}
	got := m.DiffusionCoefficient(dt)
	want := 3 * sigma * sigma / (6 * dt)
	if math.Abs(got-want)/want > 0.2 {
		t.Errorf("D = %.3e, want %.3e", got, want)
	}
}
