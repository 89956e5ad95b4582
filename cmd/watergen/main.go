// Command watergen builds and equilibrates TIP3P water boxes and writes
// each as a checkpoint image (the CRC-guarded ckpt file format, step 0,
// no configuration hash), which mdrun -in reads:
//
//	watergen -side 16 -steps 500 -o water16.tme
//	mdrun -in water16.tme -steps 1000
package main

import (
	"flag"
	"fmt"
	"os"

	"tme4a/internal/ckpt"
	"tme4a/internal/water"
)

func main() {
	side := flag.Int("side", 16, "waters per box edge (side³ molecules)")
	steps := flag.Int("steps", 300, "equilibration steps (1 fs, 300 K)")
	seed := flag.Int64("seed", 7, "random seed")
	out := flag.String("o", "water.tme", "output checkpoint image")
	flag.Parse()

	nmol := (*side) * (*side) * (*side)
	fmt.Printf("building %d TIP3P waters in a %.4f nm box...\n", nmol, water.CubicBoxFor(nmol).L[0])
	if *steps > 0 {
		fmt.Printf("equilibrating %d steps at 300 K...\n", *steps)
	}
	sys := water.Fresh(*side, *seed, *steps, 0.001, 300, 0)
	if *steps > 0 {
		fmt.Printf("final temperature: %.1f K\n", sys.Temperature())
	}
	snap := sys.TakeSnapshot(water.Meta(*side, *seed))
	data, err := (&ckpt.Checkpoint{Snap: snap}).Encode()
	if err == nil {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "watergen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d atoms)\n", *out, sys.N())
}
