// Package msm implements the B-spline multilevel summation method — the
// comparator the paper measures TME against (Sec. III.C).
//
// The structure is identical to TME (Ewald splitting, B-spline charge
// assignment/back interpolation, two-scale restriction/prolongation,
// top-level SPME), but each middle-range shell g_{α,l}(r) is convolved
// directly as a range-limited 3D grid kernel instead of a separable
// Gaussian sum: cost (2g_c+1)³ per grid point versus TME's 3·M·(2g_c+1).
// The kernel is even along every axis, so grid.ConvDirect3DAccum folds that
// sum to (g_c+1)² mirrored rows per point, about (g_c+1)³ multiplies and
// (g_c+1)²·(2g_c+2) adds. perfmodel.CompCostMSM, hw/* and tune keep the
// paper's unfolded (2g_c+1)³ on purpose: it is the count the paper sizes
// the hardware by.
// Because no Gaussian approximation is made, MSM is (slightly) more
// accurate at the same g_c — TME trades that accuracy headroom for
// separability; the exchange is quantified by the Table 1 benches and the
// BenchmarkConvSeparableVsDirect ablation.
//
// Hardy et al. (2016) formulate B-spline MSM with polynomially softened
// kernels; following the paper's framing we keep the Ewald-based splitting
// so MSM and TME differ only in the convolution structure. This is the
// substitution documented in DESIGN.md.
package msm

import (
	"fmt"
	"math"

	"tme4a/internal/bspline"
	"tme4a/internal/core"
	"tme4a/internal/grid"
	"tme4a/internal/spme"
	"tme4a/internal/units"
	"tme4a/internal/vec"
)

// Params configures a B-spline MSM solver. The fields mirror core.Params
// without the Gaussian count M.
type Params struct {
	Alpha  float64
	Rc     float64
	Order  int
	N      [3]int
	Levels int
	Gc     int
}

// Validate reports the first invalid parameter as an error. New panics on
// the same conditions; solver.Validate and solver.New surface them as
// errors.
func (p Params) Validate() error {
	if p.Levels < 1 {
		return fmt.Errorf("msm: MSM needs at least one middle level, got %d", p.Levels)
	}
	if p.Gc < 1 {
		return fmt.Errorf("msm: grid-kernel cutoff must be >= 1, got %d", p.Gc)
	}
	return spme.CheckParams("msm", p.Alpha, p.Rc, p.Order, p.N, p.Levels)
}

// Solver holds precomputed 3D level kernels. The embedded cycle runs the
// grid pipeline — Mesher, MeshPotential, LongRange, Coulomb, SetObs —
// around this package's level convolution.
type Solver struct {
	spme.Cycle
	Prm Params

	// Kernels[l-1] (read-only) is the 3D grid kernel of g_{α,1}, side
	// 2·Gc+1, with the level-l prefactor Coulomb/2^{l-1} folded in, so the
	// per-level direct convolutions run without scaling passes.
	Kernels [][]float64
}

// New precomputes the MSM solver for the box. It panics on invalid
// parameters; use Params.Validate (or solver.Validate) to get the same
// conditions as errors.
func New(prm Params, box vec.Box) *Solver {
	if err := prm.Validate(); err != nil {
		panic(err.Error())
	}
	s := &Solver{Prm: prm}
	s.Cycle = spme.NewCycle(spme.Params{Alpha: prm.Alpha, Rc: prm.Rc, Order: prm.Order, N: prm.N},
		prm.Levels, box, s.levelConvAccum)
	kernel := levelKernel3D(prm, s.Mesher.H())
	s.Kernels = make([][]float64, prm.Levels)
	for l := 1; l <= prm.Levels; l++ {
		scale := units.Coulomb / math.Pow(2, float64(l-1))
		kl := make([]float64, len(kernel))
		for i, k := range kernel {
			kl[i] = k * scale
		}
		s.Kernels[l-1] = kl
	}
	return s
}

// Describe returns a one-line description of the configured method.
func (s *Solver) Describe() string {
	return fmt.Sprintf("msm: alpha=%g rc=%g order=%d grid=%dx%dx%d levels=%d gc=%d",
		s.Prm.Alpha, s.Prm.Rc, s.Prm.Order, s.Prm.N[0], s.Prm.N[1], s.Prm.N[2],
		s.Prm.Levels, s.Prm.Gc)
}

// levelKernel3D builds the B-spline representation of g_{α,1} on the grid:
// samples of the shell at grid displacements, convolved with ω′ along each
// axis (the 3D analogue of bspline.GridKernel), truncated to |m_j| ≤ g_c.
// The shell is sampled once per octant point (m_j ≥ 0) and mirrored; each ω′
// pass runs only for the outputs the window keeps, x ∈ [0, g_c] over all y
// and z, then y ∈ [0, g_c], then z ∈ [0, g_c]; and the octant is mirrored
// into the kernel, which is therefore exactly even along every axis, as
// grid.ConvDirect3DAccum requires. The octant entries are those the full
// cube of passes gives, bit for bit.
//
// By the self-similarity g_{α,l}(r) = g_{α,1}(r/2^{l−1})/2^{l−1} and the
// level-l grid spacing 2^{l−1}h, the same kernel serves every level with a
// 1/2^{l−1} prefactor.
func levelKernel3D(prm Params, h vec.V) []float64 {
	gc := prm.Gc
	// ω′ reach: beyond ~25 entries the filter is below double precision.
	const pad = 26
	ext := gc + pad
	side := 2*ext + 1
	at := func(mx, my, mz int) int { return (mx + ext) + side*((my+ext)+side*(mz+ext)) }
	buf := make([]float64, side*side*side)
	// Sample the exact shell on the octant of the extended grid; mirror it.
	for mz := 0; mz <= ext; mz++ {
		for my := 0; my <= ext; my++ {
			for mx := 0; mx <= ext; mx++ {
				r := math.Sqrt(float64(float64(mx*mx)*h[0]*h[0]) + float64(float64(my*my)*h[1]*h[1]) +
					float64(float64(mz*mz)*h[2]*h[2]))
				buf[at(mx, my, mz)] = core.ShellExact(prm.Alpha, 1, r)
			}
		}
	}
	for mz := -ext; mz <= ext; mz++ {
		for my := -ext; my <= ext; my++ {
			for mx := -ext; mx <= ext; mx++ {
				buf[at(mx, my, mz)] = buf[at(max(mx, -mx), max(my, -my), max(mz, -mz))]
			}
		}
	}
	// Convolve ω′ along each axis (non-periodic; the shell has decayed to
	// negligible values at the padded boundary, and a kept output's taps all
	// lie inside the extended grid).
	wp := bspline.OmegaSq(prm.Order, pad)
	tmp := make([]float64, side*side*side)
	omegaPass := func(dst, src []float64, axis int) {
		var lo, hi [3]int
		for a := range lo {
			lo[a], hi[a] = -ext, ext
			if a <= axis {
				lo[a], hi[a] = 0, gc
			}
		}
		st := [3]int{1, side, side * side}[axis]
		for mz := lo[2]; mz <= hi[2]; mz++ {
			for my := lo[1]; my <= hi[1]; my++ {
				for mx := lo[0]; mx <= hi[0]; mx++ {
					c := at(mx, my, mz)
					var sum float64
					for m := -pad; m <= pad; m++ {
						sum += float64(wp[m+pad] * src[c-m*st])
					}
					dst[c] = sum
				}
			}
		}
	}
	omegaPass(tmp, buf, 0)
	omegaPass(buf, tmp, 1)
	omegaPass(tmp, buf, 2)
	// Mirror the octant into the g_c window.
	k := 2*gc + 1
	out := make([]float64, k*k*k)
	for mz := -gc; mz <= gc; mz++ {
		for my := -gc; my <= gc; my++ {
			for mx := -gc; mx <= gc; mx++ {
				out[(mx+gc)+k*((my+gc)+k*(mz+gc))] = tmp[at(max(mx, -mx), max(my, -my), max(mz, -mz))]
			}
		}
	}
	return out
}

// levelConvAccum accumulates the direct 3D convolution of the level-l
// (1-based) charge grid q with the pre-scaled level kernel into dst, in
// kJ mol⁻¹ e⁻¹. It needs no scratch, so pool goes unused.
//
//tme:noalloc
func (s *Solver) levelConvAccum(dst, q *grid.G, l int, _ *grid.Pool) {
	grid.ConvDirect3DAccum(dst, q, s.Kernels[l-1], s.Prm.Gc)
}
