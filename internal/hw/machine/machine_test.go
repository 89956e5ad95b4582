package machine

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/core"
	"tme4a/internal/protein"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
)

func paperWorkload(t testing.TB) (*Workload, Config) {
	t.Helper()
	cfg := MDGRAPE4A()
	ps := protein.Build(protein.PaperTarget())
	if ps.N() != 80540 {
		t.Fatalf("workload has %d atoms, want 80540", ps.N())
	}
	return cfg.Decompose(ps.System, ps.Bonded, 1.2), cfg
}

func paperTME() core.Params {
	return core.Params{
		Alpha: spme.AlphaFromRTol(1.2, 1e-4), Rc: 1.2, Order: 6,
		N: [3]int{32, 32, 32}, Levels: 1, M: 4, Gc: 8,
	}
}

// TestStepTimesMatchPaper reproduces the headline Sec. V measurements:
// 206 µs per step with long-range, 196 µs without, ≈10 µs (~5%) overhead.
func TestStepTimesMatchPaper(t *testing.T) {
	w, cfg := paperWorkload(t)
	with := cfg.SimulateStep(w, paperTME(), true)
	without := cfg.SimulateStep(w, paperTME(), false)

	if s := with.StepNs / 1e3; s < 195 || s > 215 {
		t.Errorf("step with LR = %.1f µs, paper reports 206 µs", s)
	}
	if s := without.StepNs / 1e3; s < 186 || s > 206 {
		t.Errorf("step without LR = %.1f µs, paper reports 196 µs", s)
	}
	delta := (with.StepNs - without.StepNs) / 1e3
	if delta < 5 || delta > 15 {
		t.Errorf("long-range overhead %.1f µs, paper reports ~10 µs", delta)
	}
	frac := delta * 1e3 / without.StepNs
	if frac > 0.08 {
		t.Errorf("overhead fraction %.1f%%, paper reports ~5%%", frac*100)
	}
}

// TestLongRangeBreakdownMatchesFig10 checks the Sec. V.B phase timings.
func TestLongRangeBreakdownMatchesFig10(t *testing.T) {
	w, cfg := paperWorkload(t)
	rep := cfg.SimulateStep(w, paperTME(), true)
	lr := rep.LR
	us := func(ns float64) float64 { return ns / 1e3 }

	if v := us(lr.Total); v < 42 || v > 58 {
		t.Errorf("LR total %.1f µs, paper reports ~50 µs", v)
	}
	if v := us(lr.CA + lr.BI); v < 8 || v > 16 {
		t.Errorf("CA+BI %.1f µs, paper reports ~10 µs", v)
	}
	if v := us(lr.Restrict); v < 0.8 || v > 2.5 {
		t.Errorf("restriction %.2f µs, paper reports 1.5 µs", v)
	}
	if v := us(lr.Conv); v < 4 || v > 8 {
		t.Errorf("convolution %.2f µs, paper reports 6 µs", v)
	}
	if v := us(lr.Prolong); v < 0.8 || v > 2.5 {
		t.Errorf("prolongation %.2f µs, paper reports 1.5 µs", v)
	}
	if v := us(lr.TMENW); v >= 20 {
		t.Errorf("TMENW roundtrip %.1f µs, paper reports < 20 µs", v)
	}
}

// TestThroughputMatchesPaper: ~1 µs/day at a 2.5 fs time step.
func TestThroughputMatchesPaper(t *testing.T) {
	w, cfg := paperWorkload(t)
	rep := cfg.SimulateStep(w, paperTME(), true)
	perf := rep.PerformanceNsPerDay(2.5) / 1e3 // µs/day
	if perf < 0.9 || perf > 1.25 {
		t.Errorf("throughput %.2f µs/day, paper reports ~1.0", perf)
	}
}

// TestGrid64Projection reproduces the Sec. VI.A estimate: a 64³ L=2 TME
// long-range phase of order 100–150 µs, dominated by GCU operations that
// grow ≈8× over the 32³ case.
func TestGrid64Projection(t *testing.T) {
	w, cfg := paperWorkload(t)
	prm64 := paperTME()
	prm64.N = [3]int{64, 64, 64}
	prm64.Levels = 2
	rep32 := cfg.SimulateStep(w, paperTME(), true)
	rep64 := cfg.SimulateStep(w, prm64, true)

	if v := rep64.LR.Total / 1e3; v < 90 || v > 170 {
		t.Errorf("64³ LR total %.1f µs, paper estimates ~150 µs", v)
	}
	gcu32 := rep32.LR.Restrict + rep32.LR.Conv + rep32.LR.Prolong
	gcu64 := rep64.LR.Restrict + rep64.LR.Conv + rep64.LR.Prolong
	ratio := gcu64 / gcu32
	if ratio < 5 || ratio > 11 {
		t.Errorf("GCU 64³/32³ ratio %.1f, paper estimates 8×", ratio)
	}
}

// TestChartContainsAllModules: the Fig. 9 chart must show every hardware
// module of the long-range chain.
func TestChartContainsAllModules(t *testing.T) {
	w, cfg := paperWorkload(t)
	rep := cfg.SimulateStep(w, paperTME(), true)
	mods := map[string]bool{}
	for _, m := range rep.Chart.Modules() {
		mods[m] = true
	}
	for _, want := range []string{"GP integrate", "NW coords", "NB pipeline", "GP bonded",
		"LRU", "NW grid", "GCU restrict", "TMENW", "GCU conv", "GCU prolong", "NW forces"} {
		if !mods[want] {
			t.Errorf("chart missing module %q (have %v)", want, rep.Chart.Modules())
		}
	}
	if rep.Chart.Render(80) == "" {
		t.Error("chart render empty")
	}
}

// TestFunctionalPipelineMatchesFloatTME: the hardware fixed-point
// long-range datapath must reproduce the double-precision TME forces to
// fixed-point accuracy.
func TestFunctionalPipelineMatchesFloatTME(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(9.9727) // paper's box → 32³ grid, 16³ top (FPGA size)
	n := 600
	pos := make([]vec.V, n)
	q := make([]float64, n)
	var qt float64
	for i := range pos {
		pos[i] = vec.V{rng.Float64() * box.L[0], rng.Float64() * box.L[1], rng.Float64() * box.L[2]}
		q[i] = rng.NormFloat64() * 0.5
		qt += q[i]
	}
	for i := range q {
		q[i] -= qt / float64(n)
	}
	prm := core.Params{
		Alpha: spme.AlphaFromRTol(1.2, 1e-4), Rc: 1.2, Order: 6,
		N: [3]int{32, 32, 32}, Levels: 1, M: 4, Gc: 8,
	}
	tme := core.New(prm, box)
	pipe := NewPipeline(tme)

	fw := make([]vec.V, n)
	ew := tme.LongRange(pos, q, fw)
	fh := make([]vec.V, n)
	eh := pipe.LongRange(pos, q, fh)

	var num, den float64
	for i := range fw {
		num += fh[i].Sub(fw[i]).Norm2()
		den += fw[i].Norm2()
	}
	relErr := math.Sqrt(num / den)
	t.Logf("hw-vs-float relative force error %.3e, energy %0.4f vs %0.4f", relErr, eh, ew)
	if relErr > 2e-3 {
		t.Errorf("fixed-point pipeline force error %g too large", relErr)
	}
	if math.Abs(eh-ew) > 5e-3*math.Abs(ew)+1 {
		t.Errorf("fixed-point energy %g vs float %g", eh, ew)
	}
}

// TestWorkloadDecomposition sanity-checks the spatial decomposition.
func TestWorkloadDecomposition(t *testing.T) {
	w, cfg := paperWorkload(t)
	if w.NNodes != cfg.Torus.NNodes() {
		t.Fatalf("node count %d", w.NNodes)
	}
	var atoms, waters, terms int
	for i := 0; i < w.NNodes; i++ {
		atoms += w.Atoms[i]
		waters += w.Waters[i]
		terms += w.BondedTerms[i]
	}
	if atoms != 80540 {
		t.Errorf("decomposed atoms %d", atoms)
	}
	if waters == 0 || terms == 0 {
		t.Errorf("empty waters (%d) or bonded terms (%d)", waters, terms)
	}
	mean := float64(atoms) / float64(w.NNodes)
	if worst := float64(maxInt(w.Atoms)); worst > 4*mean {
		t.Errorf("implausible imbalance: worst %d vs mean %.0f", int(worst), mean)
	}
}
