// Quickstart: compute Coulomb forces for a small TIP3P water box with the
// reference Ewald summation, SPME, and TME, and print the relative force
// errors (a miniature of the paper's Table 1).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"math"

	"tme4a/internal/core"
	"tme4a/internal/ewald"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

func main() {
	// An 8×8×8 lattice of TIP3P waters at liquid density (1,536 atoms).
	const side = 8
	box := water.CubicBoxFor(side * side * side)
	sys := water.Build(side, side, side, box, 42)
	water.Equilibrate(sys, 200, 0.001, 300, 0.9, 1)
	fmt.Printf("water box: %d molecules, %.3f nm cube, T = %.0f K\n",
		side*side*side, box.L[0], sys.Temperature())

	// Reference: converged Ewald summation in double precision.
	eRef, fRef := ewald.Reference(sys.Box, sys.Pos, sys.Q, sys.Excl, 1e-12)
	fmt.Printf("reference Ewald energy: %.3f kJ/mol\n", eRef)

	// Shared parameters (paper conventions): erfc(α·rc) = 1e-4, p = 6.
	// The 16³ grid keeps the TME top level (8³) at least as large as the
	// spline order.
	rc := 1.0
	alpha := spme.Alpha(rc)
	grid := [3]int{16, 16, 16}

	// SPME baseline on the same grid.
	sp := spme.New(spme.Params{Alpha: alpha, Rc: rc, Order: 6, N: grid}, box)
	fs := make([]vec.V, sys.N())
	es := sp.Coulomb(sys.Pos, sys.Q, sys.Excl, fs)
	fmt.Printf("SPME:      energy %.3f kJ/mol, relative force error %.2e\n",
		es, relErr(fs, fRef))

	// TME: the paper's contribution. One middle level, four Gaussians,
	// grid cutoff 8, SPME top level with α/2 on the 8³ grid.
	tme := core.New(core.Params{
		Alpha: alpha, Rc: rc, Order: 6, N: grid, Levels: 1, M: 4, Gc: 8,
	}, box)
	ft := make([]vec.V, sys.N())
	et := tme.Coulomb(sys.Pos, sys.Q, sys.Excl, ft)
	fmt.Printf("TME:       energy %.3f kJ/mol, relative force error %.2e\n",
		et, relErr(ft, fRef))

	// Convergence in the number of Gaussians (Table 1's M sweep).
	fmt.Println("\nTME error vs number of Gaussians (gc = 8):")
	for m := 1; m <= 4; m++ {
		t := core.New(core.Params{
			Alpha: alpha, Rc: rc, Order: 6, N: grid, Levels: 1, M: m, Gc: 8,
		}, box)
		f := make([]vec.V, sys.N())
		t.Coulomb(sys.Pos, sys.Q, sys.Excl, f)
		fmt.Printf("  M = %d: %.2e\n", m, relErr(f, fRef))
	}
}

func relErr(f, ref []vec.V) float64 {
	var num, den float64
	for i := range f {
		num += f[i].Sub(ref[i]).Norm2()
		den += ref[i].Norm2()
	}
	return math.Sqrt(num / den)
}
