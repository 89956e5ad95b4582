// Package ewald implements the classical Ewald summation: real-space erfc
// sum, reciprocal-space lattice sum, self energy and exclusion corrections.
//
// It provides the double-precision reference Coulomb forces against which
// SPME and TME are measured (paper Table 1): the reference uses r_c = L/2
// (or a cell-listed shorter cutoff for large systems) and a reciprocal
// cutoff n_c chosen so both theoretical error factors (Kolafa & Perram) are
// below a target tolerance.
//
// All energies include the electric conversion factor units.Coulomb, so
// they are in kJ/mol for charges in e and lengths in nm.
package ewald

import (
	"math"

	"tme4a/internal/celllist"
	"tme4a/internal/par"
	"tme4a/internal/topol"
	"tme4a/internal/units"
	"tme4a/internal/vec"
)

// TwoOverSqrtPi is 2/√π, the prefactor of the Gaussian term in Ewald
// derivatives.
const TwoOverSqrtPi = 2 / 1.7724538509055160273

// RealSpace computes the short-range Ewald part
// E = Σ_{i<j} q_i q_j erfc(α r)/r for non-excluded minimum-image pairs with
// r ≤ rc, accumulating forces into f (may be nil). A cell list is used when
// the box admits one.
func RealSpace(box vec.Box, pos []vec.V, q []float64, alpha, rc float64, excl *topol.Exclusions, f []vec.V) float64 {
	cl := celllist.Build(box, rc, pos)
	var energy float64
	cl.ForEachPair(pos, func(i, j int, d vec.V, r2 float64) {
		if excl.Excluded(i, j) {
			return
		}
		qq := q[i] * q[j]
		if qq == 0 {
			return
		}
		r := math.Sqrt(r2)
		e := math.Erfc(alpha*r) / r
		energy += qq * e
		if f != nil {
			// −d/dr[erfc(αr)/r] = erfc(αr)/r² + (2α/√π)e^{−α²r²}/r
			fr := qq * (e + alpha*TwoOverSqrtPi*math.Exp(-alpha*alpha*r2)) / r2 * units.Coulomb
			fv := d.Scale(fr)
			f[i] = f[i].Add(fv)
			f[j] = f[j].Sub(fv)
		}
	})
	return energy * units.Coulomb
}

// SelfEnergy returns the Ewald self-interaction correction −(α/√π) Σ q_i².
func SelfEnergy(q []float64, alpha float64) float64 {
	var s float64
	for _, qi := range q {
		s += qi * qi
	}
	return -alpha / math.Sqrt(math.Pi) * s * units.Coulomb
}

// ExclusionCorrection removes the reciprocal-space interaction of excluded
// pairs: E = −Σ_excl q_i q_j erf(α r)/r with minimum-image r, accumulating
// forces into f (may be nil). It is the reference for the correction the
// MD engines evaluate in their pair loop (nonbond.VerletList.EwaldExcl).
func ExclusionCorrection(box vec.Box, pos []vec.V, q []float64, alpha float64, excl *topol.Exclusions, f []vec.V) float64 {
	var energy float64
	for _, p := range excl.Pairs() {
		i, j := int(p.I), int(p.J)
		if j >= len(pos) {
			continue
		}
		qq := q[i] * q[j]
		if qq == 0 {
			continue
		}
		d := box.MinImage(pos[i].Sub(pos[j]))
		r2 := d.Norm2()
		r := math.Sqrt(r2)
		e := math.Erf(alpha*r) / r
		energy -= qq * e
		if f != nil {
			// Correction force: F_i = +q_i q_j d/dr[erf(αr)/r]·r̂.
			fv := d.Scale(qq * (alpha*TwoOverSqrtPi*math.Exp(-alpha*alpha*r2) - e) / r2 * units.Coulomb)
			f[i] = f[i].Add(fv)
			f[j] = f[j].Sub(fv)
		}
	}
	return energy * units.Coulomb
}

// Reciprocal computes the reciprocal-space Ewald sum over lattice vectors
// n with 0 < |n| ≤ nc:
//
//	E = (f/2πV) Σ_{n≠0} exp(−π²s²/α²)/s² |S(n)|²,  s_j = n_j/L_j,
//	S(n) = Σ_i q_i e^{2πi n·(r_i/L)},
//
// accumulating forces F_i = (4 f q_i/V) Σ_n A(n)·Im(S*·e_i)·s⃗ into f
// (which may be nil). The sum runs over a half space with a factor 2.
func Reciprocal(box vec.Box, pos []vec.V, q []float64, alpha float64, nc int, f []vec.V) float64 {
	n := len(pos)
	vol := box.Volume()
	ex := phaseTable(pos, 0, box.L[0], nc)
	ey := phaseTable(pos, 1, box.L[1], nc)
	ez := phaseTable(pos, 2, box.L[2], nc)

	scratch := make([]complex128, n)
	var energy float64
	nc2 := nc * nc
	for nx := 0; nx <= nc; nx++ {
		yLo := -nc
		if nx == 0 {
			yLo = 0
		}
		for ny := yLo; ny <= nc; ny++ {
			zLo := -nc
			if nx == 0 && ny == 0 {
				zLo = 1
			}
			for nz := zLo; nz <= nc; nz++ {
				if nx*nx+ny*ny+nz*nz > nc2 {
					continue
				}
				sx := float64(nx) / box.L[0]
				sy := float64(ny) / box.L[1]
				sz := float64(nz) / box.L[2]
				s2 := sx*sx + sy*sy + sz*sz
				a := math.Exp(-math.Pi*math.Pi*s2/(alpha*alpha)) / s2

				// Structure factor and per-atom phases.
				var sr, si float64
				for i := 0; i < n; i++ {
					ph := lookup(ex, i, nc, nx) * lookup(ey, i, nc, ny) * lookup(ez, i, nc, nz)
					scratch[i] = ph
					sr += q[i] * real(ph)
					si += q[i] * imag(ph)
				}
				energy += 2 * a * (sr*sr + si*si)
				if f != nil {
					pref := 4 * a / vol * units.Coulomb
					par.ForRange(n, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							ph := scratch[i]
							im := sr*imag(ph) - si*real(ph) // Im(S*·e_i)
							c := pref * q[i] * im
							f[i][0] += c * sx
							f[i][1] += c * sy
							f[i][2] += c * sz
						}
					})
				}
			}
		}
	}
	return energy / (2 * math.Pi * vol) * units.Coulomb
}

// phaseTable returns, flattened per atom, e^{2πi k r_axis/L} for k = 0..nc:
// entry [i*(nc+1)+k].
func phaseTable(pos []vec.V, axis int, l float64, nc int) []complex128 {
	n := len(pos)
	t := make([]complex128, n*(nc+1))
	par.ForRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			theta := 2 * math.Pi * pos[i][axis] / l
			w := complex(math.Cos(theta), math.Sin(theta))
			cur := complex(1, 0)
			base := i * (nc + 1)
			for k := 0; k <= nc; k++ {
				t[base+k] = cur
				cur *= w
			}
		}
	})
	return t
}

func lookup(t []complex128, i, nc, k int) complex128 {
	if k >= 0 {
		return t[i*(nc+1)+k]
	}
	v := t[i*(nc+1)-k]
	return complex(real(v), -imag(v))
}

// Params describes a converged reference Ewald configuration.
type Params struct {
	Alpha float64 // splitting parameter (nm⁻¹)
	Rc    float64 // real-space cutoff (nm)
	Nc    int     // reciprocal lattice cutoff |n| ≤ Nc
}

// ChooseParams picks α, r_c and n_c so that both Kolafa–Perram error
// factors, e^{−α²r_c²} (real space) and e^{−(πn_c/αL)²} (reciprocal space),
// are below tol. rcFrac sets r_c = rcFrac·min(L); the paper's reference uses
// rcFrac = 1/2.
func ChooseParams(box vec.Box, tol, rcFrac float64) Params {
	lmin := math.Min(box.L[0], math.Min(box.L[1], box.L[2]))
	lmax := math.Max(box.L[0], math.Max(box.L[1], box.L[2]))
	rc := rcFrac * lmin
	x := math.Sqrt(-math.Log(tol)) // e^{−x²} = tol
	alpha := x / rc
	nc := int(math.Ceil(x * alpha * lmax / math.Pi))
	return Params{Alpha: alpha, Rc: rc, Nc: nc}
}

// Reference computes reference Coulomb energies and forces by full Ewald
// summation with error factors below tol (e.g. 1e-12). For systems of up to
// maxDirect atoms it uses r_c = L/2; larger systems use r_c = L/3 with a
// cell list (and a correspondingly larger reciprocal cutoff). The returned
// forces are freshly allocated.
func Reference(box vec.Box, pos []vec.V, q []float64, excl *topol.Exclusions, tol float64) (energy float64, f []vec.V) {
	const maxDirect = 20000
	rcFrac := 0.5
	if len(pos) > maxDirect {
		rcFrac = 1.0 / 3.0
	}
	p := ChooseParams(box, tol, rcFrac)
	f = make([]vec.V, len(pos))
	energy = RealSpace(box, pos, q, p.Alpha, p.Rc, excl, f)
	energy += Reciprocal(box, pos, q, p.Alpha, p.Nc, f)
	energy += SelfEnergy(q, p.Alpha)
	energy += ExclusionCorrection(box, pos, q, p.Alpha, excl, f)
	return energy, f
}
