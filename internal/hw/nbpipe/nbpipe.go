// Package nbpipe models the MDGRAPE-4A nonbond pipelines: 64 dedicated
// units per SoC evaluating one pair interaction per cycle at 0.8 GHz
// (paper Sec. II).
//
// Like the GRAPE family before it, the pipeline evaluates the radial force
// and energy functions by segmented table lookup with polynomial
// interpolation in r² (avoiding the square root and transcendentals in
// hardware). That function evaluator is internal/r2tab — the same table the
// production pair kernel (internal/nonbond) runs on, so the model and the
// software are one datapath, not two. This package loads it with the
// pipeline's function set — the erfc-screened Coulomb kernel and the two
// Lennard-Jones powers, where the software keeps LJ in closed form — and
// provides the cycle model. Tests quantify the table accuracy against the
// analytic kernels, the same trade the hardware designers made.
package nbpipe

import (
	"math"

	"tme4a/internal/r2tab"
)

// Pipeline is a functional model of one SoC's nonbond pipeline array with
// its loaded function tables. Each table holds an energy function and the
// force factor that multiplies the displacement vector.
type Pipeline struct {
	// Coul is erfc(αr)/r and erfc(αr)/r³ + (2α/√π)e^{−α²r²}/r², such that
	// F = q_i q_j · force factor · d⃗.
	Coul *r2tab.Table
	// LJ6 is 1/r⁶ with force factor 1/r⁸, LJ12 is 1/r¹² with 1/r¹⁴.
	LJ6, LJ12 *r2tab.Table

	Alpha float64
	Rc    float64
}

// PipesPerSoC and ClockGHz are the hardware constants.
const (
	PipesPerSoC = 64
	ClockGHz    = 0.8
)

// NewPipeline loads tables for the given Ewald splitting parameter and
// cutoff, from 0.01 nm — below any physical contact — to the cutoff.
func NewPipeline(alpha, rc float64) *Pipeline {
	twoOverSqrtPi := 2 / math.Sqrt(math.Pi)
	r2min, r2max := 1e-4, rc*rc
	return &Pipeline{
		Alpha: alpha,
		Rc:    rc,
		Coul: r2tab.New(func(r2 float64) (e, f float64) {
			r := math.Sqrt(r2)
			e = math.Erfc(alpha*r) / r
			return e, (e + alpha*twoOverSqrtPi*math.Exp(-alpha*alpha*r2)) / r2
		}, r2min, r2max),
		LJ6: r2tab.New(func(r2 float64) (e, f float64) {
			e = 1 / (r2 * r2 * r2)
			return e, e / r2
		}, r2min, r2max),
		LJ12: r2tab.New(func(r2 float64) (e, f float64) {
			p := r2 * r2 * r2
			e = 1 / (p * p)
			return e, e / r2
		}, r2min, r2max),
	}
}

// PairForce returns the radial force factor and energy of one pair through
// the table datapath: F⃗ = fr·d⃗ for charges qi, qj and Lorentz–Berthelot
// LJ parameters (eps = 0 disables LJ).
func (p *Pipeline) PairForce(r2, qq, sigma2, eps float64) (fr, energy float64) {
	if qq != 0 {
		e, f := p.Coul.Lookup(r2)
		energy += qq * e
		fr += qq * f
	}
	if eps != 0 {
		s6 := sigma2 * sigma2 * sigma2
		s12 := s6 * s6
		e6, f6 := p.LJ6.Lookup(r2)
		e12, f12 := p.LJ12.Lookup(r2)
		energy += 4 * eps * (s12*e12 - s6*e6)
		fr += 24 * eps * (2*s12*f12 - s6*f6)
	}
	return fr, energy
}

// CyclesForPairs returns the pipeline-array cycles to evaluate n pair
// interactions on one SoC (one pair per pipeline per cycle).
//
// The hardware keeps its 64 pipelines busy by giving each a disjoint
// spatial region of the cell decomposition, with cross-boundary pair
// forces accumulated in a separate reduction phase. The software engine
// mirrors this exactly: celllist.ForEachPairInSlab partitions cells into
// worker-owned z-slabs, and nonbond defers cross-slab reaction forces to
// a second pass applied in fixed slab order — so the cycle count modeled
// here and the software's parallel decomposition count the same pairs in
// the same partitioning scheme.
func CyclesForPairs(n int) int {
	return (n + PipesPerSoC - 1) / PipesPerSoC
}

// TimeNs returns the wall time for n pair evaluations on one SoC.
func TimeNs(n int) float64 {
	return float64(CyclesForPairs(n)) / ClockGHz
}
