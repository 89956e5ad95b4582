package tme4a_test

// Benchmarks of the computational kernels behind the paper's accuracy
// tables and MD figures (cmd/tmebench produces the actual rows/series).
// The hardware-model results (Figs. 9–10, Table 2, the cost model) are
// deterministic, so TestModelResultsReproduce byte-checks them instead of
// timing them. Run with:
//
//	go test -bench=. -benchmem .

import (
	"io"
	"math/rand"
	"testing"

	"tme4a/internal/expt"
	"tme4a/internal/grid"
	"tme4a/internal/md"
	"tme4a/internal/solver"
	"tme4a/internal/topol"
	"tme4a/internal/tune"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// benchWater caches a small equilibrated water system across benchmarks.
var benchWater *md.System

func waterSystem(b *testing.B) *md.System {
	if benchWater == nil {
		box := water.CubicBoxFor(512)
		benchWater = water.Build(8, 8, 8, box, 1)
		water.Equilibrate(benchWater, 100, 0.001, 300, 0.9, 2)
	}
	return benchWater
}

// benchPlan is a Table-1 operating point on the benchmark box: rc =
// 1.0 nm, a 16³ grid, order 6 and, for TME and MSM, one middle level at
// grid-kernel cutoff gc with m Gaussians per shell (TME).
func benchPlan(method string, m, gc int) tune.Plan {
	return tune.Plan{Method: method, Rc: 1.0, Grid: [3]int{16, 16, 16}, Order: 6, Levels: 1, M: m, Gc: gc}
}

func newSolver(b *testing.B, p tune.Plan, box vec.Box) solver.Solver {
	s, err := p.NewSolver(box)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func newIntegrator(b *testing.B, p tune.Plan, box vec.Box) *md.Integrator {
	integ, err := p.NewIntegrator(box, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	return integ
}

// BenchmarkFig3GaussianApprox measures the Fig. 3 series evaluation
// (exact shells and their Gaussian-sum approximations, M = 1..4).
func BenchmarkFig3GaussianApprox(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		expt.RunFig3(4, 200, 10, io.Discard)
	}
}

// BenchmarkTable1 measures the per-configuration force evaluations of
// Table 1: the SPME baseline and the TME at its g_c/M corners.
func BenchmarkTable1(b *testing.B) {
	sys := waterSystem(b)
	for _, cfg := range []struct {
		name   string
		method string
		m, gc  int
	}{{"SPME", "spme", 0, 0}, {"TME_M1_gc8", "tme", 1, 8}, {"TME_M4_gc8", "tme", 4, 8}, {"TME_M4_gc12", "tme", 4, 12}} {
		b.Run(cfg.name, func(b *testing.B) {
			// Every method embeds spme.Cycle, whose Coulomb adds the
			// real-space sum and the exclusion correction to LongRange.
			s := newSolver(b, benchPlan(cfg.method, cfg.m, cfg.gc), sys.Box).(interface {
				Coulomb(pos []vec.V, q []float64, excl *topol.Exclusions, f []vec.V) float64
			})
			f := make([]vec.V, sys.N())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Coulomb(sys.Pos, sys.Q, sys.Excl, f)
			}
		})
	}
}

// BenchmarkFig4NVEStep measures one NVE MD step (velocity Verlet + SETTLE)
// with SPME and with TME — the inner loop of the Fig. 4 trajectories.
func BenchmarkFig4NVEStep(b *testing.B) {
	run := func(b *testing.B, p tune.Plan) {
		sys := waterSystem(b)
		integ := newIntegrator(b, p, sys.Box)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			integ.Step(sys)
		}
	}
	b.Run("SPME", func(b *testing.B) { run(b, benchPlan("spme", 0, 0)) })
	b.Run("TME_M3", func(b *testing.B) { run(b, benchPlan("tme", 3, 8)) })
}

// BenchmarkMDStepVerletSPME measures one MD step in the production
// configuration: buffered Verlet pair list (0.1 nm skin), SPME mesh and
// the parallel short-range slab engine. ReportAllocs guards the
// zero-steady-state-allocation contract at the whole-step level.
func BenchmarkMDStepVerletSPME(b *testing.B) {
	sys := waterSystem(b)
	p := benchPlan("spme", 0, 0)
	p.Skin = 0.1
	integ := newIntegrator(b, p, sys.Box)
	integ.Step(sys) // warm the pair list and scratch pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		integ.Step(sys)
	}
}

// BenchmarkConvSeparableVsDirect is the central ablation: the separable
// (tensor-structured) convolution of TME against the direct 3D convolution
// of B-spline MSM on the production 32³ grid with g_c = 8 — the paper's
// Sec. III.C computational claim, measured.
func BenchmarkConvSeparableVsDirect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := grid.New(32, 32, 32)
	for i := range src.Data {
		src.Data[i] = rng.NormFloat64()
	}
	gc := 8
	k1 := make([]float64, 2*gc+1) // even, as the separable convolution requires
	for i := 0; i <= gc; i++ {
		k1[i] = rng.NormFloat64()
		k1[2*gc-i] = k1[i]
	}
	// The direct convolution takes kernels even along every axis: each
	// entry copies a random octant entry (|mx|, |my|, |mz|).
	k := len(k1)
	at := func(mx, my, mz int) int { return (mx + gc) + k*((my+gc)+k*(mz+gc)) }
	k3 := make([]float64, k*k*k)
	for i := range k3 {
		k3[i] = rng.NormFloat64()
	}
	for mz := -gc; mz <= gc; mz++ {
		for my := -gc; my <= gc; my++ {
			for mx := -gc; mx <= gc; mx++ {
				k3[at(mx, my, mz)] = k3[at(max(mx, -mx), max(my, -my), max(mz, -mz))]
			}
		}
	}
	b.Run("TME_separable_M4", func(b *testing.B) {
		// Steady-state form: the M = 4 Gaussians are fused into one
		// accumulating pass with preallocated scratch, exactly as
		// core.levelConvAccum runs it — the same arithmetic as four
		// ConvSeparable calls, but allocation-free.
		dst := grid.New(32, 32, 32)
		t1 := grid.New(32, 32, 32)
		t2 := grid.New(32, 32, 32)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst.Zero()
			for v := 0; v < 4; v++ {
				grid.ConvSeparableAccum(dst, src, k1, k1, k1, t1, t2)
			}
		}
	})
	b.Run("MSM_direct3D", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			grid.ConvDirect3D(src, k3, gc)
		}
	})
}

// BenchmarkLongRangeSolvers compares the three mesh methods end to end on
// the same system (ablation 2 of DESIGN.md).
func BenchmarkLongRangeSolvers(b *testing.B) {
	sys := waterSystem(b)
	f := make([]vec.V, sys.N())
	for _, cfg := range []struct {
		name, method string
	}{{"SPME", "spme"}, {"TME", "tme"}, {"MSM", "msm"}} {
		b.Run(cfg.name, func(b *testing.B) {
			s := newSolver(b, benchPlan(cfg.method, 4, 8), sys.Box)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.LongRange(sys.Pos, sys.Q, f)
			}
		})
	}
}
