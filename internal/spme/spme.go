// Package spme implements the smooth particle mesh Ewald method (Essmann et
// al. 1995): B-spline charge assignment, 3D FFT, multiplication by the
// lattice Green function, inverse FFT, and B-spline back interpolation of
// energies and forces.
//
// SPME serves two roles in this repository: it is the accuracy and
// performance baseline of Table 1, and — run with α/2^L on the N/2^L grid —
// it is the top-level convolution of the TME method (the computation the
// MDGRAPE-4A root FPGA performs; see internal/hw/fpgafft). Both roles are
// one pipeline: Cycle (cycle.go) is the long-range cycle around that
// solve, with SPME its zero-level instance and TME and MSM embedding it.
package spme

import (
	"fmt"
	"math"
	"sync"

	"tme4a/internal/bspline"
	"tme4a/internal/fft"
	"tme4a/internal/grid"
	"tme4a/internal/units"
	"tme4a/internal/vec"
)

// Params configures an SPME solver.
type Params struct {
	Alpha float64 // Ewald splitting parameter (nm⁻¹)
	Rc    float64 // real-space cutoff (nm)
	Order int     // B-spline interpolation order p (even; the paper uses 6)
	N     [3]int  // grid dimensions (powers of two)
}

// Validate reports the first invalid parameter as an error. New panics on
// the same conditions; solver.Validate and solver.New surface them as
// errors.
func (p Params) Validate() error {
	return CheckParams("spme", p.Alpha, p.Rc, p.Order, p.N, 0)
}

// RTol is the erfc(α·rc) tolerance every run shares: GROMACS' ewald-rtol
// of the paper's runs, and the tolerance the Table-1 accuracy surface
// behind the tuner was measured at.
const RTol = 1e-4

// Alpha returns the splitting parameter of a run with cutoff rc:
// AlphaFromRTol at RTol.
func Alpha(rc float64) float64 { return AlphaFromRTol(rc, RTol) }

// AlphaFromRTol returns the splitting parameter α satisfying
// erfc(α·rc) = rtol, the convention of GROMACS' ewald-rtol input
// (the paper uses rtol = 1e-4).
func AlphaFromRTol(rc, rtol float64) float64 {
	// Bisection on the monotone erfc.
	lo, hi := 0.0, 100.0/rc
	for iter := 0; iter < 200; iter++ {
		mid := 0.5 * (lo + hi)
		if math.Erfc(mid*rc) > rtol {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// Solver holds the precomputed tables for a fixed box and parameter set.
// The embedded cycle, at zero levels, is the method around the reciprocal
// solve — Box, Mesher, MeshPotential, LongRange, Coulomb, SetObs.
type Solver struct {
	Cycle
	Prm Params

	plan  *fft.RealPlan3
	green []float64 // lattice Green function over the grid, DC term 0

	// specs is the free list of PotentialGridInto's half-spectrum scratch:
	// each call takes its own, so concurrent calls on one solver never
	// wait on one another.
	specs sync.Pool
}

// New precomputes an SPME solver for the box. It panics on invalid
// parameters; use Params.Validate (or solver.Validate) to get the same
// conditions as errors.
func New(prm Params, box vec.Box) *Solver {
	if err := prm.Validate(); err != nil {
		panic(err.Error())
	}
	s := &Solver{
		Prm:   prm,
		plan:  fft.NewRealPlan3(prm.N[0], prm.N[1], prm.N[2]),
		green: latticeGreen(prm, box),
	}
	n := s.plan.SpectrumLen()
	s.specs.New = func() any { spec := make([]complex128, n); return &spec }
	s.Cycle = newCycle(prm, 0, box, s, nil)
	return s
}

// latticeGreen builds the SPME lattice Green function (Deserno & Holm
// Eq. 28) including the squared Euler-spline factors |b|² of both the
// charge-assignment and back-interpolation B-splines:
//
//	G̃(m) = (1/πV)·exp(−π²s̃²/α²)/s̃² · |b_x(m_x)|²|b_y(m_y)|²|b_z(m_z)|²
//
// with s̃_j the minimum-image frequency m̃_j/L_j. Multiplying Q̂ by G̃ and
// inverse-transforming yields the grid potential; E = ½ΣQΦ then reproduces
// the standard SPME reciprocal energy.
func latticeGreen(prm Params, box vec.Box) []float64 {
	nx, ny, nz := prm.N[0], prm.N[1], prm.N[2]
	bx := bspline.EulerFactorsSq(prm.Order, nx)
	by := bspline.EulerFactorsSq(prm.Order, ny)
	bz := bspline.EulerFactorsSq(prm.Order, nz)
	vol := box.Volume()
	// The ½ΣQΦ energy with a normalised inverse FFT carries 1/N³ relative
	// to Essmann's (1/2πV)Σ A·B·|Q̂|², so the Green function absorbs N³.
	ntot := float64(nx * ny * nz)
	g := make([]float64, nx*ny*nz)
	for mz := 0; mz < nz; mz++ {
		sz := freq(mz, nz) / box.L[2]
		for my := 0; my < ny; my++ {
			sy := freq(my, ny) / box.L[1]
			for mx := 0; mx < nx; mx++ {
				if mx == 0 && my == 0 && mz == 0 {
					continue // tinfoil boundary: DC mode dropped
				}
				sx := freq(mx, nx) / box.L[0]
				s2 := sx*sx + sy*sy + sz*sz
				v := math.Exp(-math.Pi*math.Pi*s2/(prm.Alpha*prm.Alpha)) / (math.Pi * vol * s2)
				// The Coulomb conversion factor is folded into the Green
				// function so grid potentials are in kJ mol⁻¹ e⁻¹ and
				// back-interpolated forces need no further scaling.
				g[mx+nx*(my+ny*mz)] = v * bx[mx] * by[my] * bz[mz] * units.Coulomb * ntot
			}
		}
	}
	return g
}

func freq(m, n int) float64 {
	if m <= n/2 {
		return float64(m)
	}
	return float64(m - n)
}

// Describe returns a one-line description of the configured method.
func (s *Solver) Describe() string {
	return fmt.Sprintf("spme: alpha=%g rc=%g order=%d grid=%dx%dx%d",
		s.Prm.Alpha, s.Prm.Rc, s.Prm.Order, s.Prm.N[0], s.Prm.N[1], s.Prm.N[2])
}

// Green returns the precomputed lattice Green function over the grid
// (read-only; used by the FPGA FFT hardware model to load its coefficient
// memory).
func (s *Solver) Green() []float64 { return s.green }

// PotentialGridInto applies the reciprocal-space solve to a charge grid,
// Φ = IFFT(G̃ · FFT(Q)), writing into phi. Both the charges and the Green
// function are real, so only the non-redundant half spectrum is
// transformed. It takes its half-spectrum scratch from the solver's free
// list, so repeated solves allocate nothing and concurrent ones share
// nothing. phi must not alias q; q is not modified. It is the
// coarsest-grid solve of every method's Cycle.
//
//tme:noalloc
func (s *Solver) PotentialGridInto(phi, q *grid.G) {
	nx, ny, nz := s.Prm.N[0], s.Prm.N[1], s.Prm.N[2]
	if q.N != s.Prm.N {
		panic("spme: charge grid shape mismatch")
	}
	if phi.N != s.Prm.N {
		panic("spme: potential grid shape mismatch")
	}
	sp := s.specs.Get().(*[]complex128)
	spec := *sp
	s.plan.Forward(q.Data, spec)
	hx := s.plan.Hx
	for kz := 0; kz < nz; kz++ {
		for ky := 0; ky < ny; ky++ {
			for kx := 0; kx < hx; kx++ {
				spec[kx+hx*(ky+ny*kz)] *= complex(s.green[kx+nx*(ky+ny*kz)], 0)
			}
		}
	}
	s.plan.Inverse(spec, phi.Data)
	s.specs.Put(sp)
}
