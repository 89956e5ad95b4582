package solver_test

// Physics properties every registered long-range solver must have, whatever
// order its kernels sum in: forces are the negative gradient of the energy,
// and a rigid translation that maps the mesh onto itself changes nothing.

import (
	"fmt"
	"math"
	"testing"

	"tme4a/internal/solver"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
)

// propertyCases are small neutral boxes: a cubic one-level case and an
// anisotropic two-level one.
func propertyCases() []cycleCase {
	alpha := spme.AlphaFromRTol(1.0, 1e-4)
	return []cycleCase{
		{"L1", vec.Cubic(4), solver.Config{Alpha: alpha, Rc: 1, Order: 6, N: [3]int{16, 16, 16}, Levels: 1, M: 2, Gc: 4}},
		{"aniso", vec.Box{L: vec.V{4, 2.5, 3.5}}, solver.Config{Alpha: alpha, Rc: 1, Order: 4, N: [3]int{32, 16, 32}, Levels: 2, M: 2, Gc: 3}},
	}
}

// forEachSolver runs fn over every registered method on every property
// case.
func forEachSolver(t *testing.T, fn func(t *testing.T, s solver.Solver, cfg solver.Config, box vec.Box)) {
	for _, name := range solver.Names() {
		for _, tc := range propertyCases() {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				s, err := solver.New(name, tc.cfg, tc.box)
				if err != nil {
					t.Fatal(err)
				}
				fn(t, s, tc.cfg, tc.box)
			})
		}
	}
}

func maxAbsForce(f []vec.V) float64 {
	var m float64
	for _, v := range f {
		for _, c := range v {
			m = math.Max(m, math.Abs(c))
		}
	}
	return m
}

// TestLongRangeForcesAreEnergyGradient: every force component of a sample
// of atoms equals the central difference −(E(r+δ) − E(r−δ))/2δ of the
// solver's own energy, to 1e-8 of the largest force (the rounding of E/δ
// is ≈ 2e-10 of it). A level operator that is not exactly self-adjoint, or
// a gradient weight in the wrong place, shows here.
func TestLongRangeForcesAreEnergyGradient(t *testing.T) {
	forEachSolver(t, func(t *testing.T, s solver.Solver, cfg solver.Config, box vec.Box) {
		pos, q := oracleSystem(53, 40, box)
		f := make([]vec.V, len(pos))
		s.LongRange(pos, q, f)
		fmax := maxAbsForce(f)
		const delta = 1e-5 // nm
		for _, i := range []int{0, 5, 17, 38} {
			for d := 0; d < 3; d++ {
				r0 := pos[i][d]
				pos[i][d] = r0 + delta
				ep := s.LongRange(pos, q, nil)
				pos[i][d] = r0 - delta
				em := s.LongRange(pos, q, nil)
				pos[i][d] = r0
				num := -(ep - em) / (2 * delta)
				if dev := math.Abs(num - f[i][d]); dev > 1e-8*fmax {
					t.Errorf("atom %d axis %d: force %.10g, −dE/dr %.10g (|Δ| %.3g, max |F| %.3g)", i, d, f[i][d], num, dev, fmax)
				}
			}
		}
	})
}

// TestLongRangeTranslationInvariant: moving every atom by a whole number of
// coarsest-mesh cells (2^L finest cells, so every level's mesh maps onto
// itself) plus a whole box vector leaves the energy and every force
// unchanged, up to the rounding of the shifted coordinates (≈ 1e-14 of the
// largest force).
func TestLongRangeTranslationInvariant(t *testing.T) {
	forEachSolver(t, func(t *testing.T, s solver.Solver, cfg solver.Config, box vec.Box) {
		pos, q := oracleSystem(59, 60, box)
		f0 := make([]vec.V, len(pos))
		e0 := s.LongRange(pos, q, f0)
		fmax := maxAbsForce(f0)
		cell := 1 << cfg.Levels
		for _, shift := range [][2][3]int{
			{{3, -2, 5}, {0, 0, 0}},  // coarsest-mesh cells
			{{0, 0, 0}, {1, -1, 2}},  // box vectors
			{{-7, 1, 2}, {-2, 1, 0}}, // both
		} {
			moved := make([]vec.V, len(pos))
			for i, r := range pos {
				for d := 0; d < 3; d++ {
					moved[i][d] = r[d] + float64(cell*shift[0][d])*box.L[d]/float64(cfg.N[d]) + float64(shift[1][d])*box.L[d]
				}
			}
			f := make([]vec.V, len(pos))
			e := s.LongRange(moved, q, f)
			name := fmt.Sprintf("cells %v boxes %v", shift[0], shift[1])
			if math.Abs(e-e0) > 1e-13*math.Abs(e0) {
				t.Errorf("%s: energy %.15g, unshifted %.15g", name, e, e0)
			}
			for i := range f {
				for d := 0; d < 3; d++ {
					if dev := math.Abs(f[i][d] - f0[i][d]); dev > 1e-12*fmax {
						t.Fatalf("%s: force[%d][%d] %.15g, unshifted %.15g", name, i, d, f[i][d], f0[i][d])
					}
				}
			}
		}
	})
}
