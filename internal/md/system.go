// Package md provides the molecular-dynamics engine: the particle system
// container, force-field composition (short-range nonbonded + mesh
// long-range + bonded), the velocity-Verlet integrator with SETTLE
// constraints, thermostats and energy bookkeeping.
//
// This is the software equivalent of what the MDGRAPE-4A GP cores
// orchestrate: integration, bonded terms and constraint handling, with the
// nonbonded and long-range work delegated to the dedicated units.
package md

import (
	"fmt"
	"math"
	"math/rand"

	"tme4a/internal/constraint"
	"tme4a/internal/nonbond"
	"tme4a/internal/par"
	"tme4a/internal/topol"
	"tme4a/internal/units"
	"tme4a/internal/vec"
)

// System is the mutable state of a simulation.
type System struct {
	Box  vec.Box
	Pos  []vec.V
	Vel  []vec.V
	Frc  []vec.V
	Mass []float64
	Q    []float64 // charges (e)
	LJ   *nonbond.LJ
	Excl *topol.Exclusions

	// RigidWaters lists (O, H, H) index triplets constrained by SETTLE.
	RigidWaters [][3]int
	// WaterModel is the rigid geometry shared by all RigidWaters.
	WaterModel *constraint.Water

	all Owned // cache of All
}

// N returns the number of atoms.
func (s *System) N() int { return len(s.Pos) }

// NewSystem allocates a system of n atoms in box with zeroed state.
func NewSystem(n int, box vec.Box) *System {
	return &System{
		Box:  box,
		Pos:  make([]vec.V, n),
		Vel:  make([]vec.V, n),
		Frc:  make([]vec.V, n),
		Mass: make([]float64, n),
		Q:    make([]float64, n),
		LJ:   &nonbond.LJ{Sigma: make([]float64, n), Eps: make([]float64, n)},
		Excl: topol.NewExclusions(n),
	}
}

// All returns the ownership set of the single owner that holds every atom
// and every rigid water — the serial engine's instance of Owned. The lists
// are cached and rebuilt when either count changes; not safe for concurrent
// first use.
func (s *System) All() Owned {
	if len(s.all.Atoms) != s.N() || len(s.all.Waters) != len(s.RigidWaters) {
		s.all = Owned{Atoms: ascending(s.N()), Waters: ascending(len(s.RigidWaters))}
	}
	return s.all
}

func ascending(n int) []int32 {
	idx := make([]int32, n) //tmevet:ignore noalloc -- grow-once: System.All caches the list until the count changes
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// KineticEnergy returns ½ Σ m v² in kJ/mol.
func (s *System) KineticEnergy() float64 {
	var ke float64
	for i, v := range s.Vel {
		ke += 0.5 * s.Mass[i] * v.Norm2()
	}
	return ke
}

// DegreesOfFreedom returns 3N minus constraints minus COM motion.
func (s *System) DegreesOfFreedom() int {
	return 3*s.N() - 3*len(s.RigidWaters) - 3
}

// Temperature returns the instantaneous kinetic temperature in kelvin.
func (s *System) Temperature() float64 {
	dof := s.DegreesOfFreedom()
	if dof <= 0 {
		return 0
	}
	return 2 * s.KineticEnergy() / (float64(dof) * units.Boltzmann)
}

// InitVelocities draws Maxwell–Boltzmann velocities at temperature T and
// removes centre-of-mass motion. Constrained molecules then have their
// internal velocity components projected out.
func (s *System) InitVelocities(T float64, rng *rand.Rand) {
	for i := range s.Vel {
		sd := math.Sqrt(units.Boltzmann * T / s.Mass[i])
		s.Vel[i] = vec.V{rng.NormFloat64() * sd, rng.NormFloat64() * sd, rng.NormFloat64() * sd}
	}
	s.RemoveCOMMotion()
	s.settleVelocities(s.All().Waters)
	// Rescale to hit T exactly on the constrained ensemble.
	cur := s.Temperature()
	if cur > 0 {
		s.ScaleVelocities(math.Sqrt(T / cur))
	}
}

// RemoveCOMMotion zeroes the total linear momentum.
func (s *System) RemoveCOMMotion() {
	var p vec.V
	var m float64
	for i, v := range s.Vel {
		p = p.Add(v.Scale(s.Mass[i]))
		m += s.Mass[i]
	}
	vcom := p.Scale(1 / m)
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Sub(vcom)
	}
}

// ScaleVelocities multiplies all velocities by s (velocity-rescale
// thermostat primitive).
func (s *System) ScaleVelocities(f float64) {
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Scale(f)
	}
}

// settleVelocities projects the bond-stretching velocity components out of
// the listed rigid waters, split over workers as KickDrift's SETTLE is.
//
//tme:noalloc
func (s *System) settleVelocities(waters []int32) {
	if s.WaterModel == nil {
		return
	}
	par.ForRangeGrain(len(waters), settleGrain, settleJob{s: s, waters: waters}, settleJob.velocities)
}

// Validate performs basic sanity checks and returns an error describing
// the first inconsistency found.
func (s *System) Validate() error {
	n := s.N()
	if len(s.Vel) != n || len(s.Frc) != n || len(s.Mass) != n || len(s.Q) != n {
		return fmt.Errorf("md: inconsistent array lengths for %d atoms", n)
	}
	for i, m := range s.Mass {
		if m <= 0 {
			return fmt.Errorf("md: atom %d has non-positive mass %g", i, m)
		}
	}
	for _, w := range s.RigidWaters {
		for _, idx := range w {
			if idx < 0 || idx >= n {
				return fmt.Errorf("md: rigid water references atom %d out of range", idx)
			}
		}
	}
	if len(s.RigidWaters) > 0 && s.WaterModel == nil {
		return fmt.Errorf("md: rigid waters without a water model")
	}
	return nil
}
