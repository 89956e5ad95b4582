// Package water builds TIP3P water systems: lattice placement with random
// orientations, contact rejection, and optional thermal equilibration with
// the md engine. It substitutes the GROMACS-prepared water boxes of the
// paper's Table 1 / Fig. 4 experiments (see DESIGN.md).
package water

import (
	"errors"
	"math"
	"math/rand"

	"tme4a/internal/constraint"
	"tme4a/internal/md"
	"tme4a/internal/spme"
	"tme4a/internal/units"
	"tme4a/internal/vec"
)

// Model returns the TIP3P rigid geometry used for SETTLE.
func Model() *constraint.Water {
	return constraint.NewWater(units.TIP3PROH, units.TIP3PAngleHOH, units.MassO, units.MassH)
}

// Build places nx·ny·nz TIP3P molecules on a simple cubic lattice in box
// with random orientations (deterministic for a given seed) and returns an
// md.System with charges, LJ parameters, exclusions and SETTLE topology
// filled in. Orientations are re-drawn up to 20 times per molecule to keep
// inter-molecular hydrogen contacts above 0.13 nm.
func Build(nx, ny, nz int, box vec.Box, seed int64) *md.System {
	nmol := nx * ny * nz
	sys := md.NewSystem(3*nmol, box)
	sys.WaterModel = Model()
	rng := rand.New(rand.NewSource(seed))

	spacing := vec.V{box.L[0] / float64(nx), box.L[1] / float64(ny), box.L[2] / float64(nz)}
	minContact2 := 0.13 * 0.13

	placed := make([]vec.V, 0, 3*nmol)
	mol := 0
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				center := vec.V{
					(float64(ix) + 0.5) * spacing[0],
					(float64(iy) + 0.5) * spacing[1],
					(float64(iz) + 0.5) * spacing[2],
				}
				var atoms [3]vec.V
				for try := 0; ; try++ {
					atoms = Molecule(center, rng)
					if try >= 20 || !tooClose(box, placed, atoms[:], minContact2, ix, iy, nx) {
						break
					}
				}
				Place(sys, 3*mol, atoms)
				placed = append(placed, atoms[:]...)
				mol++
			}
		}
	}
	return sys
}

// canon is the TIP3P molecule about its centre of mass, matching the
// constraint geometry: O, H1, H2.
var canon = func() [3]vec.V {
	h := units.TIP3PROH * math.Cos(units.TIP3PAngleHOH/2)
	x := units.TIP3PROH * math.Sin(units.TIP3PAngleHOH/2)
	mTot := units.MassO + 2*units.MassH
	yO := 2 * units.MassH * h / mTot
	return [3]vec.V{
		{0, yO, 0},      // O
		{-x, yO - h, 0}, // H1
		{x, yO - h, 0},  // H2
	}
}()

// Molecule returns the atoms (O, H1, H2) of a TIP3P molecule centred on
// center in a random orientation, drawn from rng as four normal variates.
func Molecule(center vec.V, rng *rand.Rand) [3]vec.V {
	rot := randomRotation(rng)
	var atoms [3]vec.V
	for k := range atoms {
		atoms[k] = rot(canon[k]).Add(center)
	}
	return atoms
}

// Place puts the TIP3P molecule atoms at indices base, base+1, base+2 of
// sys: positions, masses, charges, LJ parameters, its exclusion group and
// its SETTLE topology.
func Place(sys *md.System, base int, atoms [3]vec.V) {
	for k := range atoms {
		sys.Pos[base+k] = atoms[k]
	}
	sys.Mass[base] = units.MassO
	sys.Mass[base+1] = units.MassH
	sys.Mass[base+2] = units.MassH
	sys.Q[base] = units.TIP3PQO
	sys.Q[base+1] = units.TIP3PQH
	sys.Q[base+2] = units.TIP3PQH
	sys.LJ.Sigma[base] = units.TIP3PSigma
	sys.LJ.Eps[base] = units.TIP3PEpsilon
	sys.Excl.AddGroup([]int{base, base + 1, base + 2})
	sys.RigidWaters = append(sys.RigidWaters, [3]int{base, base + 1, base + 2})
}

// tooClose checks the trial molecule's atoms against recently placed atoms
// (the previous lattice row suffices given the lattice spacing).
func tooClose(box vec.Box, placed []vec.V, atoms []vec.V, min2 float64, ix, iy, nx int) bool {
	// Look back over up to two lattice rows of atoms.
	lookback := 3 * (nx + 2)
	start := len(placed) - lookback
	if start < 0 {
		start = 0
	}
	for _, a := range atoms {
		for _, p := range placed[start:] {
			if box.MinImage(a.Sub(p)).Norm2() < min2 {
				return true
			}
		}
	}
	return false
}

func randomRotation(rng *rand.Rand) func(vec.V) vec.V {
	var q [4]float64
	var n float64
	for i := range q {
		q[i] = rng.NormFloat64()
		n += q[i] * q[i]
	}
	n = math.Sqrt(n)
	for i := range q {
		q[i] /= n
	}
	w, x, y, z := q[0], q[1], q[2], q[3]
	return func(v vec.V) vec.V {
		return vec.V{
			(1-2*(y*y+z*z))*v[0] + 2*(x*y-w*z)*v[1] + 2*(x*z+w*y)*v[2],
			2*(x*y+w*z)*v[0] + (1-2*(x*x+z*z))*v[1] + 2*(y*z-w*x)*v[2],
			2*(x*z-w*y)*v[0] + 2*(y*z+w*x)*v[1] + (1-2*(x*x+y*y))*v[2],
		}
	}
}

// CubicBoxFor returns the cubic box edge that gives nmol TIP3P molecules
// the ambient liquid density.
func CubicBoxFor(nmol int) vec.Box {
	edge := math.Cbrt(float64(nmol) / units.TIP3PDensity)
	return vec.Cubic(edge)
}

// Equilibrate runs steps of thermostatted MD with short-range-only
// electrostatics (erfc-screened at the given cutoff) to thermalise a
// freshly built lattice. It is deliberately cheap: mesh electrostatics are
// unnecessary for decorrelating orientations.
func Equilibrate(sys *md.System, steps int, dt, temperature, rc float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sys.InitVelocities(temperature, rng)
	integ := &md.Integrator{
		FF:         &md.ForceField{Alpha: spme.Alpha(rc), Rc: rc},
		Dt:         dt,
		Thermostat: &md.Thermostat{T: temperature, Tau: 0.1},
	}
	integ.Run(sys, steps, nil)
	sys.RemoveCOMMotion()
}

// Fresh returns the start of a run on side³ TIP3P molecules: Build's
// lattice in CubicBoxFor's box on seed, then, for equil > 0, Equilibrate's
// equil thermostatted steps of dt at equilT on seed+1, with the
// short-range cutoff min(0.9 nm, rc); rc ≤ 0 selects 0.475·L, the largest
// the box edge L holds with a margin. Draw continues the seed chain.
func Fresh(side int, seed int64, equil int, dt, equilT, rc float64) *md.System {
	box := CubicBoxFor(side * side * side)
	sys := Build(side, side, side, box, seed)
	if equil > 0 {
		if rc <= 0 {
			rc = box.L[0] / 2 * 0.95
		}
		Equilibrate(sys, equil, dt, equilT, math.Min(0.9, rc), seed+1)
	}
	return sys
}

// Draw gives sys Maxwell–Boltzmann velocities at temperature T on seed+2,
// the third draw of the seed chain Fresh starts.
func Draw(sys *md.System, T float64, seed int64) {
	sys.InitVelocities(T, rand.New(rand.NewSource(seed+2)))
}

// Meta is the builder record a snapshot of a Fresh box carries, from which
// Rebuild reconstructs its topology.
func Meta(side int, seed int64) map[string]int64 {
	return map[string]int64{"side": int64(side), "seed": seed}
}

// Rebuild reconstructs the topology of a snapshot carrying Meta's record,
// in the snapshot's box. Positions and velocities are the caller's to
// restore from the snapshot, so there is no equilibration and no draw.
func Rebuild(snap *md.Snapshot) (*md.System, error) {
	side := int(snap.Meta["side"])
	if side <= 0 {
		return nil, errors.New("water: snapshot carries no builder meta")
	}
	return Build(side, side, side, snap.Box, snap.Meta["seed"]), nil
}
