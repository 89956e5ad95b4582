// Waterbox: an NVE molecular-dynamics simulation of TIP3P water with TME
// long-range electrostatics — the paper's Fig. 4 experiment in miniature.
// Velocity Verlet at 1 fs with SETTLE constraints; prints the energy
// ledger every 50 steps and the total-energy drift at the end.
//
// Run with: go run ./examples/waterbox [-steps N] [-mol side]
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"

	"tme4a/internal/md"
	"tme4a/internal/tune"
	"tme4a/internal/water"
)

func main() {
	steps := flag.Int("steps", 300, "number of 1 fs MD steps")
	side := flag.Int("mol", 10, "waters per box edge (side³ molecules)")
	flag.Parse()

	nmol := (*side) * (*side) * (*side)
	box := water.CubicBoxFor(nmol)
	rc := min(1.2, box.L[0]/2.2)
	fmt.Printf("NVE water: %d molecules (%d atoms), box %.3f nm\n",
		nmol, 3*nmol, box.L[0])
	fmt.Printf("parallel short-range engine on %d worker(s); "+
		"trajectories are bitwise identical at any GOMAXPROCS\n",
		runtime.GOMAXPROCS(0))

	// The lattice takes long to relax: after 200 thermostatted steps the
	// NVE run below heated a 648-atom box from 300 K to 446 K within 100
	// steps; after 2,000 it stays at 290–321 K over 300 steps.
	const seed, equil = 2021, 2000
	fmt.Printf("thermalising %d steps at 300 K...\n", equil)
	sys := water.Fresh(*side, seed, equil, 0.001, 300, rc)
	fmt.Printf("settled at %.1f K\n", sys.Temperature())
	water.Draw(sys, 300, seed)

	// Skin > 0 turns on the buffered Verlet pair list; after the first
	// step the engine reuses all scratch, so stepping allocates nothing.
	integ, err := tune.Plan{
		Method: "tme", Rc: rc, Skin: 0.1, Grid: [3]int{16, 16, 16},
		Order: 6, Levels: 1, M: 3, Gc: 8,
	}.NewIntegrator(box, 0.001)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%8s %14s %14s %14s %10s\n", "step", "potential", "kinetic", "total", "T (K)")
	var e0, eN md.Energies
	for s := 1; s <= *steps; s++ {
		e := integ.Step(sys)
		if s == 1 {
			e0 = e
		}
		eN = e
		if s%50 == 0 || s == 1 {
			fmt.Printf("%8d %14.3f %14.3f %14.3f %10.1f\n",
				s, e.Potential(), e.Kinetic, e.Total(), sys.Temperature())
		}
	}
	drift := eN.Total() - e0.Total()
	fmt.Printf("\ntotal-energy change over %d fs: %+.3f kJ/mol (%.4f%% of kinetic)\n",
		*steps, drift, 100*abs(drift)/eN.Kinetic)
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
