package md_test

// The Ewald exclusion correction is evaluated in the short-range pair loop.
// These tests hold it to the serial reference, ewald.ExclusionCorrection,
// with every registered mesh solver, and check that a pair the list cannot
// reach is reported rather than silently left uncorrected.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tme4a/internal/ewald"
	"tme4a/internal/md"
	"tme4a/internal/nonbond"
	"tme4a/internal/solver"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// equilibratedWater is a side³-molecule water box after a short
// thermostatted run, so molecules sit off the lattice.
func equilibratedWater(side int, rc float64) *md.System {
	sys := water.Build(side, side, side, water.CubicBoxFor(side*side*side), 5)
	water.Equilibrate(sys, 10, 0.001, 300, math.Min(0.9, rc), 6)
	return sys
}

// TestExclusionCorrectionMatchesReference: ForceField's forces and CoulExcl
// equal a pair list without the correction + the solver's LongRange +
// ewald.ExclusionCorrection, for every registered solver and the cutoff
// method, on a cell-mode box (3000 atoms, rc 0.5) and a direct-mode one
// (648 atoms, rc 0.84), at skin 0 and 0.1: forces within 1e-9·max|F|,
// CoulExcl within 1e-10 relative, CoulShort bitwise. The correction's
// forces (ForceField's minus the other two terms') sum to zero.
func TestExclusionCorrectionMatchesReference(t *testing.T) {
	boxes := []struct {
		name string
		side int
		rc   float64
		grid int
	}{
		{"cell", 10, 0.5, 32},
		{"direct", 6, 0.84, 16},
	}
	for _, bc := range boxes {
		sys := equilibratedWater(bc.side, bc.rc)
		n := sys.N()
		alpha := spme.AlphaFromRTol(bc.rc, 1e-4)
		cfg := solver.Config{Alpha: alpha, Rc: bc.rc, Order: 6, N: [3]int{bc.grid, bc.grid, bc.grid}, Levels: 1, M: 3, Gc: 8}
		for _, method := range append(solver.Names(), "cutoff") {
			for _, skin := range []float64{0, 0.1} {
				t.Run(fmt.Sprintf("%s/%s/skin%g", bc.name, method, skin), func(t *testing.T) {
					ff := &md.ForceField{Alpha: alpha, Rc: bc.rc, Skin: skin}
					if method != "cutoff" {
						s, err := solver.New(method, cfg, sys.Box)
						if err != nil {
							t.Fatal(err)
						}
						ff.Mesh = s
					}
					e := ff.Compute(sys)

					vl := nonbond.NewVerletList(sys.Box, bc.rc, skin)
					vl.Rebuild(sys.Pos, sys.Excl)
					rest := make([]vec.V, n)
					short := vl.Compute(sys.Pos, sys.Q, sys.LJ, alpha, rest)
					corr := make([]vec.V, n)
					var eExcl float64
					if ff.Mesh != nil {
						ff.Mesh.LongRange(sys.Pos, sys.Q, rest)
						eExcl = ewald.ExclusionCorrection(sys.Box, sys.Pos, sys.Q, alpha, sys.Excl, corr)
					}
					if math.Float64bits(e.CoulShort) != math.Float64bits(short.ECoul) {
						t.Errorf("CoulShort %.17g, list without the correction %.17g", e.CoulShort, short.ECoul)
					}
					if math.Abs(e.CoulExcl-eExcl) > 1e-10*math.Abs(eExcl) || (eExcl == 0) != (e.CoulExcl == 0) {
						t.Errorf("CoulExcl %.15g, ExclusionCorrection %.15g", e.CoulExcl, eExcl)
					}
					var fmax float64
					for i := range rest {
						fmax = math.Max(fmax, rest[i].Add(corr[i]).Norm())
					}
					var sum vec.V
					for i := range rest {
						got := sys.Frc[i].Sub(rest[i])
						if d := got.Sub(corr[i]).Norm(); d > 1e-9*fmax {
							t.Fatalf("atom %d: correction force %v, ExclusionCorrection %v (|Δ| %.3g, max|F| %.3g)", i, got, corr[i], d, fmax)
						}
						sum = sum.Add(got)
					}
					if sum.Norm() > 1e-9*fmax {
						t.Errorf("correction forces sum to %v (max|F| %.3g)", sum, fmax)
					}
				})
			}
		}
	}
}

// TestExcludedPairBeyondReachPanics: an exclusion between two molecules
// farther apart than rc + skin, in cell layers the list never pairs, makes
// the mesh force field panic naming the pair and the reach.
func TestExcludedPairBeyondReachPanics(t *testing.T) {
	sys := equilibratedWater(6, 0.3)
	far, r2 := 0, 0.0
	for j := 3; j < sys.N(); j += 3 {
		if d := sys.Box.MinImage(sys.Pos[0].Sub(sys.Pos[j])).Norm2(); d > r2 {
			far, r2 = j, d
		}
	}
	sys.Excl.Add(0, far)
	const rc = 0.3
	alpha := spme.AlphaFromRTol(rc, 1e-4)
	mesh, err := solver.New("spme", solver.Config{Alpha: alpha, Rc: rc, Order: 6, N: [3]int{16, 16, 16}, Levels: 1}, sys.Box)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if want := fmt.Sprintf("(0, %d)", far); !strings.Contains(msg, want) || !strings.Contains(msg, "rc + skin = 0.3 nm") {
			t.Fatalf("recovered %q, want a panic naming %s and the reach", msg, want)
		}
	}()
	(&md.ForceField{Alpha: alpha, Rc: rc, Mesh: mesh}).Compute(sys)
}
