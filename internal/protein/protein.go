// Package protein builds synthetic protein–water–ion systems that stand in
// for the paper's benchmark target (a 480-residue, 7,775-atom protein with
// ions and solvent, 80,540 atoms total in a 9.7 × 8.3 × 10.6 nm box).
//
// The generator produces a compact self-avoiding chain with realistic term
// counts (bonds, angles, dihedrals per residue), neutralizing ions, and a
// TIP3P solvent fill. Timing experiments depend only on atom counts,
// spatial distribution and topology sizes — not on biochemical detail —
// which is why this substitution preserves the Fig. 9/10 behaviour
// (see DESIGN.md).
package protein

import (
	"math"
	"math/rand"

	"tme4a/internal/bonded"
	"tme4a/internal/md"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// Params configures the generator.
type Params struct {
	Residues    int     // chain length (480 in the paper's target)
	AtomsPerRes int     // atoms per residue (~16 → 7,680 + termini)
	TotalAtoms  int     // final atom count including water and ions
	Box         vec.Box // periodic box
	GlobuleR    float64 // protein globule radius (nm)
	Seed        int64
}

// PaperTarget returns the Fig. 9 workload parameters: 480 residues,
// 80,540 atoms, 9.7 × 8.3 × 10.6 nm box.
func PaperTarget() Params {
	return Params{
		Residues:    480,
		AtomsPerRes: 16,
		TotalAtoms:  80540,
		Box:         vec.NewBox(9.7, 8.3, 10.6),
		GlobuleR:    3.0,
		Seed:        2021,
	}
}

// System is a built protein+solvent system with its bonded topology.
type System struct {
	*md.System
	Bonded       *bonded.FF
	ProteinAtoms int
	Ions         int
	Waters       int
}

// Build generates the system. The protein occupies a compact globule at
// the box centre; water fills the rest at liquid density; a handful of
// ions neutralize the protein charge.
func Build(p Params) *System {
	rng := rand.New(rand.NewSource(p.Seed))
	nProt := p.Residues * p.AtomsPerRes
	if nProt > p.TotalAtoms {
		panic("protein: protein larger than total")
	}

	// Chain positions: a density-limited random walk confined to the
	// globule. Without the occupancy cap a plain random walk piles up at
	// the centre far above liquid density, which would distort the
	// load-balance behaviour the timing experiments measure.
	center := vec.V{p.Box.L[0] / 2, p.Box.L[1] / 2, p.Box.L[2] / 2}
	pos := make([]vec.V, 0, p.TotalAtoms)
	cur := center
	const bondLen = 0.15
	density := newOccupancy(p.Box, 0.35)
	crowd := map[int]int{}
	// ≈ liquid density in a 0.35 nm cell is ~4 atoms.
	const cellCap = 4
	for i := 0; i < nProt; i++ {
		best := cur
		bestScore := 1 << 30
		for try := 0; try < 80; try++ {
			dir := vec.V{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			// Bias the walk back toward the centre only near the surface;
			// inside, crowd-minimizing diffusion spreads the chain evenly.
			if toCenter := center.Sub(cur); toCenter.Norm() > 0.85*p.GlobuleR {
				dir = dir.Add(toCenter.Normalize().Scale(1.2))
			}
			next := cur.Add(dir.Normalize().Scale(bondLen))
			score := crowd[density.idx(next)]
			if next.Sub(center).Norm() >= p.GlobuleR {
				score += cellCap // outside the globule: heavy penalty
			}
			if score < bestScore {
				best, bestScore = next, score
			}
			if score == 0 {
				break
			}
		}
		cur = best
		crowd[density.idx(cur)]++
		pos = append(pos, cur)
	}

	// Ion count: start from a typical protein net charge of −21 e and add
	// counter-ions until the remaining atom budget is divisible into
	// 3-atom waters; the protein net charge is then set to −nIons so the
	// whole system is neutral.
	nIons := 21
	for (p.TotalAtoms-nProt-nIons)%3 != 0 {
		nIons++
	}
	nWater := (p.TotalAtoms - nProt - nIons) / 3

	// Protein charges: alternating partial charges summing to −nIons.
	netCharge := -nIons
	charges := make([]float64, nProt)
	for i := range charges {
		switch i % 4 {
		case 0:
			charges[i] = 0.4
		case 1:
			charges[i] = -0.4
		case 2:
			charges[i] = 0.25
		default:
			charges[i] = -0.25
		}
	}
	for i := 0; i < -netCharge*2; i++ { // shift some charges to reach −21 e
		charges[i*7%nProt] -= 0.5 / 2 * 1 // −0.25 each over 42 atoms
	}
	// Exact adjustment on the last atom.
	var sum float64
	for _, c := range charges {
		sum += c
	}
	charges[nProt-1] += float64(netCharge) - sum

	total := nProt + nIons + 3*nWater
	sys := md.NewSystem(total, p.Box)
	sys.WaterModel = water.Model()
	copy(sys.Pos, pos)

	ff := &bonded.FF{}
	for i := 0; i < nProt; i++ {
		sys.Mass[i] = 12.011
		sys.Q[i] = charges[i]
		sys.LJ.Sigma[i] = 0.33
		sys.LJ.Eps[i] = 0.40
		if i > 0 {
			ff.Bonds = append(ff.Bonds, bonded.Bond{I: int32(i - 1), J: int32(i), R0: bondLen, K: 25000})
			sys.Excl.Add(i-1, i)
		}
		if i > 1 {
			ff.Angles = append(ff.Angles, bonded.Angle{I: int32(i - 2), J: int32(i - 1), K: int32(i), Theta0: 1.92, KTheta: 450})
			sys.Excl.Add(i-2, i)
		}
		if i > 2 {
			ff.Dihedrals = append(ff.Dihedrals, bonded.Dihedral{I: int32(i - 3), J: int32(i - 2), K: int32(i - 1), L: int32(i), Phase: 0, KPhi: 4, Mult: 3})
		}
	}

	// Occupancy hash for solvent placement.
	occ := newOccupancy(p.Box, 0.35)
	for i := 0; i < nProt; i++ {
		occ.mark(sys.Pos[i])
	}

	// Ions on random free sites.
	idx := nProt
	for k := 0; k < nIons; k++ {
		r := freeSite(rng, p.Box, occ)
		sys.Pos[idx] = r
		sys.Mass[idx] = 22.99 // sodium
		sys.Q[idx] = 1
		sys.LJ.Sigma[idx] = 0.233
		sys.LJ.Eps[idx] = 0.36
		occ.mark(r)
		idx++
	}

	// Water on a lattice skipping occupied cells.
	nl := int(math.Ceil(math.Cbrt(float64(nWater) * 1.3)))
	spacing := vec.V{p.Box.L[0] / float64(nl), p.Box.L[1] / float64(nl), p.Box.L[2] / float64(nl)}
	placed := 0
	for iz := 0; iz < nl && placed < nWater; iz++ {
		for iy := 0; iy < nl && placed < nWater; iy++ {
			for ix := 0; ix < nl && placed < nWater; ix++ {
				c := vec.V{
					(float64(ix) + 0.5) * spacing[0],
					(float64(iy) + 0.5) * spacing[1],
					(float64(iz) + 0.5) * spacing[2],
				}
				if occ.occupied(c) {
					continue
				}
				water.Place(sys, idx, water.Molecule(c, rng))
				occ.mark(c)
				idx += 3
				placed++
			}
		}
	}
	if placed < nWater {
		// Fallback: allow placement in occupied cells (dense systems).
		for placed < nWater {
			c := vec.V{rng.Float64() * p.Box.L[0], rng.Float64() * p.Box.L[1], rng.Float64() * p.Box.L[2]}
			water.Place(sys, idx, water.Molecule(c, rng))
			idx += 3
			placed++
		}
	}

	return &System{
		System:       sys,
		Bonded:       ff,
		ProteinAtoms: nProt,
		Ions:         nIons,
		Waters:       nWater,
	}
}

type occupancy struct {
	box  vec.Box
	cell float64
	n    [3]int
	set  map[int]bool
}

func newOccupancy(box vec.Box, cell float64) *occupancy {
	o := &occupancy{box: box, cell: cell, set: map[int]bool{}}
	for k := 0; k < 3; k++ {
		o.n[k] = int(box.L[k] / cell)
		if o.n[k] < 1 {
			o.n[k] = 1
		}
	}
	return o
}

func (o *occupancy) idx(r vec.V) int {
	r = o.box.Wrap(r)
	var c [3]int
	for k := 0; k < 3; k++ {
		c[k] = int(r[k] / o.box.L[k] * float64(o.n[k]))
		if c[k] >= o.n[k] {
			c[k] = o.n[k] - 1
		}
	}
	return c[0] + o.n[0]*(c[1]+o.n[1]*c[2])
}

func (o *occupancy) mark(r vec.V)          { o.set[o.idx(r)] = true }
func (o *occupancy) occupied(r vec.V) bool { return o.set[o.idx(r)] }

func freeSite(rng *rand.Rand, box vec.Box, occ *occupancy) vec.V {
	for {
		r := vec.V{rng.Float64() * box.L[0], rng.Float64() * box.L[1], rng.Float64() * box.L[2]}
		if !occ.occupied(r) {
			return r
		}
	}
}
