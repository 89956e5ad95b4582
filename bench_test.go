package tme4a_test

// One benchmark per table/figure of the paper's evaluation, measuring the
// computational kernels that regenerate each result (cmd/tmebench produces
// the actual rows/series). Run with:
//
//	go test -bench=. -benchmem .

import (
	"io"
	"math/rand"
	"testing"

	"tme4a/internal/core"
	"tme4a/internal/expt"
	"tme4a/internal/grid"
	"tme4a/internal/md"
	"tme4a/internal/msm"
	"tme4a/internal/spme"
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

func benchParams(m, gc int) core.Params {
	return core.Params{
		Alpha: spme.AlphaFromRTol(1.0, 1e-4), Rc: 1.0, Order: 6,
		N: [3]int{16, 16, 16}, Levels: 1, M: m, Gc: gc,
	}
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
	b.Run("SPME", func(b *testing.B) {
		s := spme.New(spme.Params{Alpha: spme.AlphaFromRTol(1.0, 1e-4),
			Rc: 1.0, Order: 6, N: [3]int{16, 16, 16}}, sys.Box)
		f := make([]vec.V, sys.N())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Coulomb(sys.Pos, sys.Q, sys.Excl, f)
		}
	})
	for _, cfg := range []struct {
		name  string
		m, gc int
	}{{"TME_M1_gc8", 1, 8}, {"TME_M4_gc8", 4, 8}, {"TME_M4_gc12", 4, 12}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			s := core.New(benchParams(cfg.m, cfg.gc), sys.Box)
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
	run := func(b *testing.B, mesh md.MeshSolver) {
		sys := waterSystem(b)
		alpha := spme.AlphaFromRTol(1.0, 1e-4)
		integ := &md.Integrator{
			FF: &md.ForceField{Alpha: alpha, Rc: 1.0, Mesh: mesh}, Dt: 0.001,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			integ.Step(sys)
		}
	}
	b.Run("SPME", func(b *testing.B) {
		sys := waterSystem(b)
		run(b, spme.New(spme.Params{Alpha: spme.AlphaFromRTol(1.0, 1e-4),
			Rc: 1.0, Order: 6, N: [3]int{16, 16, 16}}, sys.Box))
	})
	b.Run("TME_M3", func(b *testing.B) {
		sys := waterSystem(b)
		run(b, core.New(benchParams(3, 8), sys.Box))
	})
}

// BenchmarkMDStepVerletSPME measures one MD step in the production
// configuration: buffered Verlet pair list (0.1 nm skin), SPME mesh and
// the parallel short-range slab engine. ReportAllocs guards the
// zero-steady-state-allocation contract at the whole-step level.
func BenchmarkMDStepVerletSPME(b *testing.B) {
	sys := waterSystem(b)
	alpha := spme.AlphaFromRTol(1.0, 1e-4)
	mesh := spme.New(spme.Params{Alpha: alpha, Rc: 1.0, Order: 6,
		N: [3]int{16, 16, 16}}, sys.Box)
	integ := &md.Integrator{
		FF: &md.ForceField{Alpha: alpha, Rc: 1.0, Skin: 0.1, Mesh: mesh},
		Dt: 0.001,
	}
	integ.Step(sys) // warm the pair list and scratch pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		integ.Step(sys)
	}
}

// BenchmarkFig9MachineStep measures the full machine-model simulation of
// one MD step on the 80,540-atom workload (Fig. 9).
func BenchmarkFig9MachineStep(b *testing.B) {
	hw := expt.NewHWContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hw.Cfg.SimulateStep(hw.Workload, hw.Prm, true)
	}
}

// BenchmarkFig10LongRangePhases measures the long-range chain model in
// isolation (Fig. 10 breakdown).
func BenchmarkFig10LongRangePhases(b *testing.B) {
	hw := expt.NewHWContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hw.RunFig10(io.Discard)
	}
}

// BenchmarkTable2 measures the cross-system table assembly (simulated
// MDGRAPE-4A row + literature rows).
func BenchmarkTable2(b *testing.B) {
	hw := expt.NewHWContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hw.RunTable2(io.Discard)
	}
}

// BenchmarkGrid64Projection measures the Sec. VI.A 64³ (L = 2) projection.
func BenchmarkGrid64Projection(b *testing.B) {
	hw := expt.NewHWContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hw.RunGrid64(io.Discard)
	}
}

// BenchmarkCostModel measures the Sec. III.C analytic sweep.
func BenchmarkCostModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		expt.RunCostModel(io.Discard)
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
	alpha := spme.AlphaFromRTol(1.0, 1e-4)
	n := [3]int{16, 16, 16}
	f := make([]vec.V, sys.N())
	b.Run("SPME", func(b *testing.B) {
		s := spme.New(spme.Params{Alpha: alpha, Rc: 1.0, Order: 6, N: n}, sys.Box)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.LongRange(sys.Pos, sys.Q, f)
		}
	})
	b.Run("TME", func(b *testing.B) {
		s := core.New(benchParams(4, 8), sys.Box)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.LongRange(sys.Pos, sys.Q, f)
		}
	})
	b.Run("MSM", func(b *testing.B) {
		s := msm.New(msm.Params{Alpha: alpha, Rc: 1.0, Order: 6, N: n,
			Levels: 1, Gc: 8}, sys.Box)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.LongRange(sys.Pos, sys.Q, f)
		}
	})
}
