// Waterstructure: run thermostatted TIP3P water MD with TME long-range
// electrostatics and measure the oxygen–oxygen radial distribution
// function — the standard end-to-end physics check of an MD stack
// (liquid TIP3P has its first O–O peak near 0.28 nm).
//
// Run with: go run ./examples/waterstructure [-steps N]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"tme4a/internal/analysis"
	"tme4a/internal/md"
	"tme4a/internal/tune"
	"tme4a/internal/water"
)

func main() {
	steps := flag.Int("steps", 400, "production MD steps (1 fs)")
	flag.Parse()

	const side, seed = 8, 17 // 512 waters
	sys := water.Fresh(side, seed, 0, 0.001, 300, 0)
	water.Draw(sys, 300, seed)
	box := sys.Box
	fmt.Printf("TIP3P water: %d molecules, %.3f nm box\n", side*side*side, box.L[0])

	integ, err := tune.Plan{
		Method: "tme", Rc: 0.9, Skin: 0.15, Grid: [3]int{16, 16, 16},
		Order: 6, Levels: 1, M: 3, Gc: 8,
	}.NewIntegrator(box, 0.001)
	if err != nil {
		log.Fatal(err)
	}
	integ.Thermostat = &md.CSVR{T: 300, Tau: 0.05, Rng: rand.New(rand.NewSource(seed + 3))}

	// Equilibrate, then sample g(r) and the diffusion coefficient. The
	// lattice takes long to relax: after 200 steps the run still heated to
	// 372–386 K against the thermostat's 300 K; after 2,000 it ends at 314 K.
	const equil = 2000
	fmt.Printf("equilibrating %d steps at 300 K (CSVR)...\n", equil)
	integ.Run(sys, equil, nil)
	fmt.Printf("settled at %.1f K\n", sys.Temperature())

	oxy := make([]int, 0, side*side*side)
	for _, w := range sys.RigidWaters {
		oxy = append(oxy, w[0])
	}
	rdf := analysis.NewRDF(box.L[0]/2*0.95, 90)
	msd := analysis.NewMSD(sys.Box, sys.Pos)
	fmt.Printf("sampling %d production steps...\n", *steps)
	integ.Run(sys, *steps, func(s int, e md.Energies) {
		if s%10 == 0 {
			rdf.AddFrame(sys.Box, sys.Pos, oxy, oxy)
			msd.AddFrame(sys.Pos)
		}
	})

	peak, height := rdf.FirstPeak(0.2)
	fmt.Printf("\nO–O g(r) first peak: r = %.3f nm, g = %.2f\n", peak, height)
	fmt.Println("(experimental/TIP3P literature: r ≈ 0.276 nm, g ≈ 2.5–3)")
	d := msd.DiffusionCoefficient(0.010)
	fmt.Printf("diffusion coefficient ≈ %.2e nm²/ps (TIP3P literature ~5e-3)\n", d)
	fmt.Printf("final temperature: %.0f K\n", sys.Temperature())

	rs, g := rdf.G()
	fmt.Println("\nr_nm,g_OO")
	for i := range rs {
		if i%3 == 0 {
			fmt.Printf("%.3f,%.3f\n", rs[i], g[i])
		}
	}
}
