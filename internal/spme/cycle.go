package spme

import (
	"fmt"
	"math"

	"tme4a/internal/bspline"
	"tme4a/internal/ewald"
	"tme4a/internal/grid"
	"tme4a/internal/obs"
	"tme4a/internal/pmesh"
	"tme4a/internal/topol"
	"tme4a/internal/vec"
)

// Cycle is the full-grid long-range cycle of every mesh method (paper
// Sec. III): charge assignment → L restrictions → coarsest-grid solve →
// L × (prolongation, level convolution) → back interpolation, plus the
// Ewald self energy. The coarsest grid is always solved by SPME with α/2^L
// on the N/2^L grid (the computation of the MDGRAPE-4A root FPGA), so SPME
// itself is the L = 0 instance, and TME and B-spline MSM differ only in the
// level convolution: each embeds a Cycle, hands it that one stage and keeps
// its kernel tables.
//
// Every intermediate grid comes from the one pool and goes back, so
// steady-state solves allocate nothing; a solve keeps its level table on
// its own stack, so concurrent solves on one Cycle share only the pool and
// the top solver's spectrum scratch, which lock.
type Cycle struct {
	Box    vec.Box
	Mesher *pmesh.Mesher // finest-grid charge assignment / back interpolation

	alpha, rc float64
	levels    int
	j         []float64     // two-scale coefficients
	pool      *grid.Pool    // recycled level grids and convolution scratch
	top       *Solver       // coarsest-grid solve; the embedding solver itself when levels = 0
	level     LevelConv     // never called when levels = 0
	o         *obs.Recorder // when non-nil, times the grid stages
}

// LevelConv is the stage of the cycle that differs between methods: it
// accumulates the level-l (1-based) middle-range convolution of the level-l
// charge grid q into dst, in kJ mol⁻¹ e⁻¹, drawing any scratch it needs
// from pool and returning it. The cycle calls it as a function value, which
// tmevet's call graph does not follow, so implementations carry their own
// //tme:noalloc.
type LevelConv func(dst, q *grid.G, l int, pool *grid.Pool)

// NewCycle builds the cycle of a method with levels ≥ 1 middle-range levels
// over finest-grid parameters prm that passed CheckParams, and the top-level
// SPME solver under it.
func NewCycle(prm Params, levels int, box vec.Box, level LevelConv) Cycle {
	tp := prm
	tp.Alpha /= math.Pow(2, float64(levels))
	for jx := range tp.N {
		tp.N[jx] >>= levels
	}
	return newCycle(prm, levels, box, New(tp, box), level)
}

// newCycle builds the cycle over a given top-level solver: New passes the
// solver under construction, at zero levels.
func newCycle(prm Params, levels int, box vec.Box, top *Solver, level LevelConv) Cycle {
	return Cycle{
		Box:    box,
		Mesher: pmesh.NewMesher(prm.Order, prm.N, box),
		alpha:  prm.Alpha,
		rc:     prm.Rc,
		levels: levels,
		j:      bspline.TwoScale(prm.Order),
		pool:   grid.NewPool(),
		top:    top,
		level:  level,
	}
}

// CheckParams reports the first parameter the cycle cannot run on, worded
// for the method's package: α, rc, the spline order, and each grid dimension
// halving levels ≥ 0 times onto a power of two (the coarsest-grid solve is a
// real FFT) no smaller than the order. Parameters that pass have
// levels < 64, which MeshPotential's level table relies on.
func CheckParams(method string, alpha, rc float64, order int, n [3]int, levels int) error {
	if !(alpha > 0) {
		return fmt.Errorf("%s: Alpha must be positive, got %g", method, alpha)
	}
	if !(rc > 0) {
		return fmt.Errorf("%s: Rc must be positive, got %g", method, rc)
	}
	if order%2 != 0 || order < 2 || order > pmesh.MaxOrder {
		return fmt.Errorf("%s: order must be even and in [2, %d], got %d", method, pmesh.MaxOrder, order)
	}
	for _, nj := range n {
		d := nj >> levels
		if d<<levels != nj || d < 1 {
			return fmt.Errorf("%s: grid dim %d not divisible by 2^%d", method, nj, levels)
		}
		if nj < order {
			return fmt.Errorf("%s: grid dim %d smaller than spline order %d", method, nj, order)
		}
		if d&(d-1) != 0 {
			if levels == 0 {
				return fmt.Errorf("%s: grid dim %d is not a power of two (required by the real FFT plan)", method, nj)
			}
			return fmt.Errorf("%s: top-level grid dim %d (= %d/2^%d) is not a power of two", method, d, nj, levels)
		}
		if d < order {
			return fmt.Errorf("%s: top-level grid dim %d (= %d/2^%d) smaller than spline order %d", method, d, nj, levels, order)
		}
	}
	return nil
}

// SetObs attaches a stage recorder to the cycle, its mesher and pool and
// the top solver's FFT plan (nil detaches). Not safe to call concurrently
// with solves.
func (c *Cycle) SetObs(r *obs.Recorder) {
	c.o = r
	c.Mesher.SetObs(r)
	c.pool.SetObs(r)
	c.top.plan.SetObs(r)
}

// TopSolver exposes the top-level SPME solver (used by the hardware model
// and diagnostics).
func (c *Cycle) TopSolver() *Solver { return c.top }

// TwoScale returns the restriction/prolongation coefficients (read-only).
func (c *Cycle) TwoScale() []float64 { return c.j }

// MeshPotential runs the grid pipeline — charge assignment, restrictions,
// coarsest-grid solve, prolongations and level convolutions — and returns
// the finest-grid potential in kJ mol⁻¹ e⁻¹. It is exposed separately so
// the hardware simulator can compare its fixed-point datapath against this
// double-precision reference stage by stage. The returned grid comes from
// the cycle's pool and is owned by the caller; MeshEnergy recycles it,
// external callers may simply let it be garbage collected.
//
//tme:noalloc
func (c *Cycle) MeshPotential(pos []vec.V, q []float64) *grid.G {
	L := c.levels
	// Downward pass: restrict charges level by level. charges is 1-based;
	// [L+1] is the coarsest grid.
	var charges [64]*grid.G
	charges[1] = c.pool.Get(c.Mesher.N)
	charges[1].Zero()
	c.Mesher.AssignTo(charges[1], pos, q)
	for l := 1; l <= L; l++ {
		n := charges[l].N
		charges[l+1] = c.pool.Get([3]int{n[0] / 2, n[1] / 2, n[2] / 2})
		sp := c.o.Start(obs.StageRestrict)
		grid.RestrictInto(charges[l+1], charges[l], c.j, c.pool)
		sp.Stop()
	}
	// Coarsest-grid solve (the TMENW/root-FPGA computation).
	phi := c.pool.Get(charges[L+1].N)
	sp := c.o.Start(obs.StageTopSPME)
	c.top.PotentialGridInto(phi, charges[L+1])
	sp.Stop()
	c.pool.Put(charges[L+1])
	// Upward pass: prolong and accumulate each level's convolution,
	// recycling every grid as soon as its last reader is done.
	for l := L; l >= 1; l-- {
		up := c.pool.Get(charges[l].N)
		sp := c.o.Start(obs.StageProlong)
		grid.ProlongInto(up, phi, c.j, c.pool)
		sp.Stop()
		c.pool.Put(phi)
		sp = c.o.Start(obs.StageConv)
		c.level(up, charges[l], l, c.pool)
		sp.Stop()
		c.pool.Put(charges[l])
		phi = up
	}
	return phi
}

// MeshEnergy computes the mesh part of the Coulomb energy in kJ/mol,
// accumulating forces into f (may be nil).
//
//tme:noalloc
func (c *Cycle) MeshEnergy(pos []vec.V, q []float64, f []vec.V) float64 {
	phi := c.MeshPotential(pos, q)
	e := c.Mesher.Interpolate(phi, pos, q, f)
	c.pool.Put(phi)
	return e
}

// LongRange computes the mesh (long-range) part of the Coulomb energy plus
// the Ewald self energy — the portion the MDGRAPE-4A long-range units
// handle — accumulating forces into f (may be nil).
//
//tme:noalloc
func (c *Cycle) LongRange(pos []vec.V, q []float64, f []vec.V) float64 {
	return c.MeshEnergy(pos, q, f) + ewald.SelfEnergy(q, c.alpha)
}

// Coulomb computes the method's full Coulomb energy — short-range erfc +
// mesh + self + exclusion corrections — accumulating forces into f (may
// be nil).
func (c *Cycle) Coulomb(pos []vec.V, q []float64, excl *topol.Exclusions, f []vec.V) float64 {
	e := ewald.RealSpace(c.Box, pos, q, c.alpha, c.rc, excl, f)
	e += c.LongRange(pos, q, f)
	e += ewald.ExclusionCorrection(c.Box, pos, q, c.alpha, excl, f)
	return e
}
