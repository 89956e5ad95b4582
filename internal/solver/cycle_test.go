package solver_test

// Tests of spme.Cycle, the one full-grid pipeline, through every method
// that embeds it. oracleLongRange is the stage sequence each method's own
// MeshPotential/LongRange ran before the cycle replaced them, written out
// from exported grid/pmesh/spme/ewald calls on freshly allocated grids; every
// pinned trajectory hash and Table-1 golden was produced by that sequence,
// so the cycle must reproduce it bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"tme4a/internal/bspline"
	"tme4a/internal/core"
	"tme4a/internal/ewald"
	"tme4a/internal/grid"
	"tme4a/internal/msm"
	"tme4a/internal/par/partest"
	"tme4a/internal/pmesh"
	"tme4a/internal/solver"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
)

// levelOracle returns the level convolution of the method s implements,
// built from its exported kernel tables, and the number of levels it runs.
func levelOracle(t *testing.T, s solver.Solver, cfg solver.Config) (level func(dst, q *grid.G, l int), levels int) {
	t.Helper()
	switch s := s.(type) {
	case *spme.Solver:
		return nil, 0
	case *core.Solver:
		kern, kernZ := s.Kernels(), s.LevelZKernels()
		return func(dst, q *grid.G, l int) {
			t1, t2 := grid.New(q.N[0], q.N[1], q.N[2]), grid.New(q.N[0], q.N[1], q.N[2])
			for v := range kern {
				grid.ConvSeparableAccum(dst, q, kern[v][0], kern[v][1], kernZ[l-1][v], t1, t2)
			}
		}, cfg.Levels
	case *msm.Solver:
		return func(dst, q *grid.G, l int) {
			grid.ConvDirect3DAccum(dst, q, s.Kernels[l-1], cfg.Gc)
		}, cfg.Levels
	default:
		t.Fatalf("no level oracle for %T — update this test alongside the registry", s)
		return nil, 0
	}
}

// oracleLongRange runs assign → restrict × L → SPME at α/2^L on N/2^L →
// (prolong, level-convolve) × L → interpolate + self energy, and returns
// the finest-grid potential and the energy, accumulating forces into f.
func oracleLongRange(cfg solver.Config, levels int, level func(dst, q *grid.G, l int), box vec.Box, pos []vec.V, q []float64, f []vec.V) (*grid.G, float64) {
	mesher := pmesh.NewMesher(cfg.Order, cfg.N, box)
	j := bspline.TwoScale(cfg.Order)
	pool := grid.NewPool()
	topN := cfg.N
	for jx := range topN {
		topN[jx] >>= levels
	}
	top := spme.New(spme.Params{Alpha: cfg.Alpha / math.Pow(2, float64(levels)), Rc: cfg.Rc, Order: cfg.Order, N: topN}, box)

	charges := make([]*grid.G, levels+2)
	charges[1] = grid.New(mesher.N[0], mesher.N[1], mesher.N[2])
	mesher.AssignTo(charges[1], pos, q)
	for l := 1; l <= levels; l++ {
		n := charges[l].N
		charges[l+1] = grid.New(n[0]/2, n[1]/2, n[2]/2)
		grid.RestrictInto(charges[l+1], charges[l], j, pool)
	}
	phi := grid.New(topN[0], topN[1], topN[2])
	top.PotentialGridInto(phi, charges[levels+1])
	for l := levels; l >= 1; l-- {
		n := charges[l].N
		up := grid.New(n[0], n[1], n[2])
		grid.ProlongInto(up, phi, j, pool)
		level(up, charges[l], l)
		phi = up
	}
	e := mesher.Interpolate(phi, pos, q, f)
	return phi, e + ewald.SelfEnergy(q, cfg.Alpha)
}

// oracleSystem is a neutral random system with atoms up to a box length
// outside the box on either side and a few uncharged atoms.
func oracleSystem(seed int64, n int, box vec.Box) ([]vec.V, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos, q := neutralRandomSystem(rng, n, box)
	for i := range pos {
		for d := 0; d < 3; d++ {
			pos[i][d] += float64(rng.Intn(3)-1) * box.L[d]
		}
	}
	// Moving an atom's charge onto a neighbour keeps the system neutral.
	for _, i := range []int{3, n / 2, n - 1} {
		q[i-1], q[i] = q[i-1]+q[i], 0
	}
	return pos, q
}

type cycleCase struct {
	name string
	box  vec.Box
	cfg  solver.Config
}

func cycleCases() []cycleCase {
	alpha := spme.AlphaFromRTol(1.0, 1e-4)
	return []cycleCase{
		{"L1", vec.Cubic(4), solver.Config{Alpha: alpha, Rc: 1, Order: 6, N: [3]int{16, 16, 16}, Levels: 1, M: 2, Gc: 4}},
		{"L2", vec.Cubic(4), solver.Config{Alpha: alpha, Rc: 1, Order: 6, N: [3]int{32, 32, 32}, Levels: 2, M: 3, Gc: 3}},
		{"aniso", vec.Box{L: vec.V{4, 2.5, 3.5}}, solver.Config{Alpha: alpha, Rc: 1, Order: 4, N: [3]int{32, 16, 32}, Levels: 2, M: 1, Gc: 3}},
	}
}

// forEachMethod runs fn over every registered method on every cycle case,
// TME under both kernel families.
func forEachMethod(t *testing.T, fn func(t *testing.T, s solver.Solver, cfg solver.Config, box vec.Box)) {
	for _, name := range solver.Names() {
		kernels := []string{""}
		if name == "tme" {
			kernels = []string{"gauss", "useries"}
		}
		for _, kern := range kernels {
			for _, tc := range cycleCases() {
				cfg := tc.cfg
				cfg.Kernel = kern
				t.Run(fmt.Sprintf("%s%s/%s", name, kern, tc.name), func(t *testing.T) {
					s, err := solver.New(name, cfg, tc.box)
					if err != nil {
						t.Fatal(err)
					}
					fn(t, s, cfg, tc.box)
				})
			}
		}
	}
}

// TestCycleMatchesStageOracle: energy, every force component and every
// finest-grid potential value of the cycle equal the written-out stage
// sequence bitwise (signed zeros told apart), at GOMAXPROCS 1 and 4, on a
// second solve through the warmed pool as on the first.
func TestCycleMatchesStageOracle(t *testing.T) {
	forEachMethod(t, func(t *testing.T, s solver.Solver, cfg solver.Config, box vec.Box) {
		pos, q := oracleSystem(41, 90, box)
		level, levels := levelOracle(t, s, cfg)
		fo := make([]vec.V, len(pos))
		phiO, eo := oracleLongRange(cfg, levels, level, box, pos, q, fo)
		for _, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			for pass := 0; pass < 2; pass++ {
				f := make([]vec.V, len(pos))
				e := s.LongRange(pos, q, f)
				if math.Float64bits(e) != math.Float64bits(eo) {
					t.Errorf("procs %d pass %d: energy %v, oracle %v", procs, pass, e, eo)
				}
				for i := range f {
					for d := 0; d < 3; d++ {
						if math.Float64bits(f[i][d]) != math.Float64bits(fo[i][d]) {
							t.Fatalf("procs %d pass %d: force[%d][%d] %v, oracle %v", procs, pass, i, d, f[i][d], fo[i][d])
						}
					}
				}
				phi := s.(interface {
					MeshPotential(pos []vec.V, q []float64) *grid.G
				}).MeshPotential(pos, q)
				if phi.N != phiO.N {
					t.Fatalf("potential grid %v, oracle %v", phi.N, phiO.N)
				}
				for i, v := range phi.Data {
					if math.Float64bits(v) != math.Float64bits(phiO.Data[i]) {
						t.Fatalf("procs %d pass %d: potential[%d] %v, oracle %v", procs, pass, i, v, phiO.Data[i])
					}
				}
			}
			runtime.GOMAXPROCS(old)
		}
	})
}

// TestLongRangeSteadyStateAllocs is the one allocation gate of the cycle:
// after warmup a long-range solve of every registered method draws every
// grid from the pool and allocates nothing at one, two or four workers.
// The bound is exact for all of them: the count is the integer mean over
// its runs, so the handful of objects a sync.Pool refill after a GC costs
// — the allowance core's own gate still carries — rounds to zero.
func TestLongRangeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	forEachMethod(t, func(t *testing.T, s solver.Solver, cfg solver.Config, box vec.Box) {
		pos, q := oracleSystem(43, 200, box)
		f := make([]vec.V, len(pos))
		for _, procs := range []int{1, 2, 4} {
			if allocs := partest.AllocsPerRun(procs, 30, func() { s.LongRange(pos, q, f) }); allocs != 0 {
				t.Errorf("GOMAXPROCS=%d: LongRange allocates %.1f objects per solve in steady state, want 0", procs, allocs)
			}
		}
	})
}

// TestConcurrentLongRange: the cycle keeps no per-solve state on the
// solver, so two goroutines solving on one solver at once each get the
// serial bits. Run under -race (tier1.sh) this is the check that dropping
// the solvers' mutex left no shared write behind.
func TestConcurrentLongRange(t *testing.T) {
	forEachMethod(t, func(t *testing.T, s solver.Solver, cfg solver.Config, box vec.Box) {
		pos, q := oracleSystem(47, 90, box)
		f0 := make([]vec.V, len(pos))
		e0 := s.LongRange(pos, q, f0)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 3; iter++ {
					f := make([]vec.V, len(pos))
					if e := s.LongRange(pos, q, f); math.Float64bits(e) != math.Float64bits(e0) {
						t.Errorf("concurrent energy %v, serial %v", e, e0)
					}
					for i := range f {
						if f[i] != f0[i] {
							t.Errorf("concurrent force[%d] %v, serial %v", i, f[i], f0[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}
