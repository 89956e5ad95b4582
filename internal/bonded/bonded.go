// Package bonded implements intramolecular (bonded) force-field terms:
// harmonic bonds, harmonic angles and periodic proper dihedrals.
//
// On MDGRAPE-4A these terms are evaluated by the general-purpose (GP)
// RISC-V cores; this package is the numerical implementation, and the GP
// cycle model in internal/hw charges time per term using these counts.
package bonded

import (
	"math"

	"tme4a/internal/vec"
)

// Bond is a harmonic bond E = ½·K·(r − R0)².
type Bond struct {
	I, J int32
	R0   float64 // nm
	K    float64 // kJ mol⁻¹ nm⁻²
}

// Angle is a harmonic angle E = ½·K·(θ − Theta0)².
type Angle struct {
	I, J, K int32   // J is the apex
	Theta0  float64 // radians
	KTheta  float64 // kJ mol⁻¹ rad⁻²
}

// Dihedral is a periodic proper dihedral E = K·(1 + cos(Mult·φ − Phase)).
type Dihedral struct {
	I, J, K, L int32
	Phase      float64 // radians
	KPhi       float64 // kJ/mol
	Mult       int
}

// FF is a set of bonded terms over one topology.
type FF struct {
	Bonds     []Bond
	Angles    []Angle
	Dihedrals []Dihedral
}

// Compute evaluates all bonded terms with minimum-image displacements,
// accumulating forces into f (may be nil) and returning the total energy.
func (ff *FF) Compute(box vec.Box, pos []vec.V, f []vec.V) float64 {
	if ff == nil {
		return 0
	}
	var e float64
	for _, b := range ff.Bonds {
		d := box.MinImage(pos[b.I].Sub(pos[b.J]))
		r := d.Norm()
		dr := r - b.R0
		e += 0.5 * b.K * dr * dr
		if f != nil && r > 0 {
			fv := d.Scale(-b.K * dr / r)
			f[b.I] = f[b.I].Add(fv)
			f[b.J] = f[b.J].Sub(fv)
		}
	}
	for _, a := range ff.Angles {
		e += angleTerm(box, pos, f, a)
	}
	for _, d := range ff.Dihedrals {
		e += dihedralTerm(box, pos, f, d)
	}
	return e
}

func angleTerm(box vec.Box, pos []vec.V, f []vec.V, a Angle) float64 {
	rij := box.MinImage(pos[a.I].Sub(pos[a.J]))
	rkj := box.MinImage(pos[a.K].Sub(pos[a.J]))
	nij, nkj := rij.Norm(), rkj.Norm()
	cosTh := rij.Dot(rkj) / (nij * nkj)
	cosTh = math.Max(-1, math.Min(1, cosTh))
	th := math.Acos(cosTh)
	dth := th - a.Theta0
	e := 0.5 * a.KTheta * dth * dth
	if f == nil {
		return e
	}
	sinTh := math.Sqrt(1 - cosTh*cosTh)
	if sinTh < 1e-8 {
		return e // collinear: force direction undefined, energy still valid
	}
	// F_i = −K·dθ·∇_iθ = (K·dθ/sinθ)·∇_i cosθ.
	c := a.KTheta * dth / sinTh
	fi := rkj.Scale(1 / (nij * nkj)).Sub(rij.Scale(cosTh / (nij * nij))).Scale(c)
	fk := rij.Scale(1 / (nij * nkj)).Sub(rkj.Scale(cosTh / (nkj * nkj))).Scale(c)
	f[a.I] = f[a.I].Add(fi)
	f[a.K] = f[a.K].Add(fk)
	f[a.J] = f[a.J].Sub(fi).Sub(fk)
	return e
}

func dihedralTerm(box vec.Box, pos []vec.V, f []vec.V, d Dihedral) float64 {
	// φ is the angle between the (ijk) and (jkl) planes, measured with the
	// IUPAC sign convention via the robust atan2 form.
	b1 := box.MinImage(pos[d.J].Sub(pos[d.I]))
	b2 := box.MinImage(pos[d.K].Sub(pos[d.J]))
	b3 := box.MinImage(pos[d.L].Sub(pos[d.K]))
	m := b1.Cross(b2)
	n := b2.Cross(b3)
	b2n := b2.Norm()
	phi := math.Atan2(m.Cross(n).Dot(b2)/b2n, m.Dot(n))
	arg := float64(d.Mult)*phi - d.Phase
	e := d.KPhi * (1 + math.Cos(arg))
	if f == nil {
		return e
	}
	dE := -d.KPhi * float64(d.Mult) * math.Sin(arg) // dE/dφ
	msq := m.Norm2()
	nsq := n.Norm2()
	if msq < 1e-14 || nsq < 1e-14 {
		return e // collinear backbone: gradient undefined
	}
	// Blondel & Karplus gradients of φ.
	gi := m.Scale(-b2n / msq)
	gl := n.Scale(b2n / nsq)
	a := b1.Dot(b2) / (b2n * b2n)
	bb := b3.Dot(b2) / (b2n * b2n)
	gj := gi.Scale(-(1 + a)).Add(gl.Scale(bb))
	gk := gi.Scale(a).Sub(gl.Scale(1 + bb))
	f[d.I] = f[d.I].Sub(gi.Scale(dE))
	f[d.J] = f[d.J].Sub(gj.Scale(dE))
	f[d.K] = f[d.K].Sub(gk.Scale(dE))
	f[d.L] = f[d.L].Sub(gl.Scale(dE))
	return e
}
