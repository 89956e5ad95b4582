// Package core implements the paper's primary contribution: the
// tensor-structured multilevel Ewald summation method (TME).
//
// TME splits the Coulomb potential (paper Eq. (4)) as
//
//	1/r = erfc(αr)/r + Σ_{l=1..L} g_{α,l}(r) + erf(α r/2^L)/r
//
// where the middle-range shells g_{α,l}(r) = [erf(αr/2^{l−1}) − erf(αr/2^l)]/r
// are approximated by M-term Gaussian sums via Gauss–Legendre quadrature
// (Eq. (6)–(7)) and represented on level-l grids with per-axis 1D B-spline
// kernels (Eq. (8)–(11)), so their 3D convolutions become separable — the
// tensor structure that maps onto the MDGRAPE-4A GCU and its 3D torus.
// The top-level term is solved by SPME with α/2^L on the N/2^L grid (the
// computation of the root FPGA), and levels are connected by the exact
// two-scale restriction/prolongation of even-order B-splines.
package core

import (
	"fmt"
	"math"

	"tme4a/internal/bspline"
	"tme4a/internal/grid"
	"tme4a/internal/quad"
	"tme4a/internal/spme"
	"tme4a/internal/units"
	"tme4a/internal/vec"
)

// KernelFamily selects the separable Gaussian-sum decomposition of the
// middle-range shells (the nodes and weights of Eq. (6)): every family
// yields M Gaussians per shell and therefore the identical grid pipeline
// and cost; only the kernel tables differ.
type KernelFamily string

const (
	// KernelGauss is the paper's Gauss–Legendre rule (Eq. (7)): nodes on
	// the width octave [α/2, α], weights by integration exactness. The
	// zero value of KernelFamily selects it.
	KernelGauss KernelFamily = "gauss"
	// KernelUSeries is the u-series family (Predescu et al.): widths in
	// geometric progression inside the same octave, weights from a
	// force-norm least-squares fit (see quad.USeries). Better force
	// accuracy per term for M ≤ 3; tabulated up to M = quad.USeriesMaxM.
	KernelUSeries KernelFamily = "useries"
)

// orDefault maps the zero value onto the paper's Gauss–Legendre family.
func (f KernelFamily) orDefault() KernelFamily {
	if f == "" {
		return KernelGauss
	}
	return f
}

// Params configures a TME solver. The paper's hardware operating point is
// Order = 6, N = 32³ or 64³, Levels = 1 or 2, Gc ∈ {8, 12}, M ≤ 4.
type Params struct {
	Alpha  float64      // Ewald splitting parameter (nm⁻¹)
	Rc     float64      // short-range cutoff (nm)
	Order  int          // B-spline order p (even)
	N      [3]int       // finest grid dimensions (each divisible by 2^Levels)
	Levels int          // number of middle-range levels L ≥ 1
	M      int          // Gaussians per middle-range shell
	Gc     int          // grid-kernel cutoff g_c (1D kernels span |m| ≤ g_c)
	Kernel KernelFamily // middle-range decomposition ("" = KernelGauss)
}

// Validate reports the first invalid parameter as an error. New panics on
// the same conditions; solver.Validate and solver.New surface them as
// errors so a CLI can reject a bad -method/-kernel/-grid combination with
// a usage message instead of a stack trace.
func (p Params) Validate() error {
	if p.Levels < 1 {
		return fmt.Errorf("core: TME needs at least one middle level, got %d", p.Levels)
	}
	if p.M < 1 {
		return fmt.Errorf("core: TME needs at least one Gaussian per shell, got %d", p.M)
	}
	if p.Gc < 1 {
		return fmt.Errorf("core: grid-kernel cutoff must be >= 1, got %d", p.Gc)
	}
	switch p.Kernel.orDefault() {
	case KernelGauss:
	case KernelUSeries:
		if p.M > quad.USeriesMaxM {
			return fmt.Errorf("core: u-series kernels are tabulated for M <= %d, got M=%d", quad.USeriesMaxM, p.M)
		}
	default:
		return fmt.Errorf("core: unknown kernel family %q (kernels: %s, %s)", p.Kernel, KernelGauss, KernelUSeries)
	}
	return spme.CheckParams("core", p.Alpha, p.Rc, p.Order, p.N, p.Levels)
}

// Solver holds the precomputed kernels for a fixed box. The embedded cycle
// runs the grid pipeline — Mesher, MeshPotential, LongRange, Coulomb,
// SetObs — around this package's level convolution.
type Solver struct {
	spme.Cycle
	Prm Params

	kern [][3][]float64 // kern[ν][axis]: 1D kernels K^{ν,j}, length 2·Gc+1

	// kernZ[l-1][ν] is kern[ν][2] with the level-l prefactor
	// Coulomb/2^{l-1} folded in, so levelConvAccum needs no post-scaling
	// pass over the grid.
	kernZ [][][]float64
}

// shellQuad returns the normalized Gaussian-sum decomposition of the
// middle-range shell for the chosen family: g_{α,1}(r) ≈
// α·Σ_v c_v·exp(−(τ_v·α·r)²). For KernelGauss these are the Eq. (7)
// Gauss–Legendre nodes mapped onto the width octave; for KernelUSeries
// they come from quad.USeries.
func shellQuad(family KernelFamily, m int) (tau, c []float64) {
	switch family.orDefault() {
	case KernelUSeries:
		return quad.USeries(m)
	case KernelGauss:
		nodes, weights := quad.GaussLegendre(m)
		tau = make([]float64, m)
		c = make([]float64, m)
		for v := 0; v < m; v++ {
			tau[v] = (3 - nodes[v]) / 4
			c[v] = weights[v] / (2 * math.Sqrt(math.Pi))
		}
		return tau, c
	default:
		panic(fmt.Sprintf("core: unknown kernel family %q", family))
	}
}

// New validates parameters and precomputes all kernels. It panics on
// invalid parameters; use Params.Validate (or solver.Validate) to get
// the same conditions as errors.
func New(prm Params, box vec.Box) *Solver {
	if err := prm.Validate(); err != nil {
		panic(err.Error())
	}
	s := &Solver{Prm: prm}
	s.Cycle = spme.NewCycle(spme.Params{Alpha: prm.Alpha, Rc: prm.Rc, Order: prm.Order, N: prm.N},
		prm.Levels, box, s.levelConvAccum)
	// Gaussian-sum nodes and weights: Eq. (7) Gauss–Legendre by default,
	// or the u-series family when selected.
	tau, cv := shellQuad(prm.Kernel, prm.M)
	h := s.Mesher.H()
	s.kern = make([][3][]float64, prm.M)
	for v := 0; v < prm.M; v++ {
		alphaV := tau[v] * prm.Alpha
		cV := cv[v] * prm.Alpha
		c3 := math.Cbrt(cV)
		for axis := 0; axis < 3; axis++ {
			k := bspline.GridKernel(prm.Order, alphaV*h[axis], prm.Gc)
			for i := range k {
				k[i] *= c3
			}
			s.kern[v][axis] = k
		}
	}
	// Per-level z-kernels with the 1/2^{l-1} prefactor and the Coulomb
	// conversion folded in (see levelConvAccum).
	s.kernZ = make([][][]float64, prm.Levels)
	for l := 1; l <= prm.Levels; l++ {
		scale := units.Coulomb / math.Pow(2, float64(l-1))
		s.kernZ[l-1] = make([][]float64, prm.M)
		for v := 0; v < prm.M; v++ {
			kz := make([]float64, len(s.kern[v][2]))
			for i, k := range s.kern[v][2] {
				kz[i] = k * scale
			}
			s.kernZ[l-1][v] = kz
		}
	}
	return s
}

// Describe returns a one-line description of the configured method.
func (s *Solver) Describe() string {
	return fmt.Sprintf("tme: alpha=%g rc=%g order=%d grid=%dx%dx%d levels=%d M=%d gc=%d kernel=%s",
		s.Prm.Alpha, s.Prm.Rc, s.Prm.Order, s.Prm.N[0], s.Prm.N[1], s.Prm.N[2],
		s.Prm.Levels, s.Prm.M, s.Prm.Gc, s.Prm.Kernel.orDefault())
}

// Kernels returns the per-Gaussian 1D grid kernels (read-only).
func (s *Solver) Kernels() [][3][]float64 { return s.kern }

// LevelZKernels returns the per-level z-axis kernels with the level
// prefactor and Coulomb conversion folded in: LevelZKernels()[l-1][ν] is
// the z kernel levelConvAccum uses at level l (read-only). Slab-decomposed
// pipelines (internal/dist, internal/rank) need them to reproduce the level
// convolutions bitwise.
func (s *Solver) LevelZKernels() [][][]float64 { return s.kernZ }

// levelConvAccum accumulates the separable middle-range convolution of
// level l (1-based) of the level-l charge grid q into dst, in
// kJ mol⁻¹ e⁻¹ (paper Eq. (9)–(11)): dst += Σ_ν K^{ν,x}∗K^{ν,y}∗K̃^{ν,z}∗q,
// where K̃^{ν,z} carries the 1/2^{l−1} prefactor and Coulomb conversion.
// The two convolution scratch grids come from pool and go back.
//
//tme:noalloc
func (s *Solver) levelConvAccum(dst, q *grid.G, l int, pool *grid.Pool) {
	t1, t2 := pool.Get(q.N), pool.Get(q.N)
	for v := range s.kern {
		grid.ConvSeparableAccum(dst, q, s.kern[v][0], s.kern[v][1], s.kernZ[l-1][v], t1, t2)
	}
	pool.Put(t1)
	pool.Put(t2)
}

// ShellExact evaluates the middle-range shell g_{α,l}(r) =
// [erf(αr/2^{l−1}) − erf(αr/2^l)]/r (paper Eq. (5)); at r = 0 it returns the
// finite limit α/(2^{l−1}√π)·(2 − 1) = α/(2^{l−1}√π).
func ShellExact(alpha float64, l int, r float64) float64 {
	scale := math.Pow(2, float64(l-1))
	a := alpha / scale
	if r == 0 {
		return a / math.Sqrt(math.Pi)
	}
	return (math.Erf(a*r) - math.Erf(a*r/2)) / r
}

// ShellApprox evaluates the M-term Gauss–Legendre approximation of
// g_{α,l}(r) (paper Eq. (6)–(7)).
func ShellApprox(alpha float64, l, m int, r float64) float64 {
	return ShellApproxFamily(alpha, l, m, KernelGauss, r)
}

// ShellApproxFamily evaluates the M-term Gaussian-sum approximation of
// g_{α,l}(r) for the chosen kernel family. The level-l shell reuses the
// level-1 decomposition through the self-similarity g_{α,l}(r) =
// g_{α/2^{l−1},1}(r) — both families keep their widths inside the rescaled
// octave, so one table serves every level.
func ShellApproxFamily(alpha float64, l, m int, family KernelFamily, r float64) float64 {
	tau, c := shellQuad(family, m)
	scale := math.Pow(2, float64(l-1))
	var s float64
	for v := 0; v < m; v++ {
		x := tau[v] * alpha * r / scale
		s += alpha * c[v] * math.Exp(-x*x)
	}
	return s / scale
}
