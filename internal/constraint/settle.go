// Package constraint implements holonomic constraints for rigid 3-site
// water: the analytic SETTLE algorithm of Miyamoto & Kollman (1992) for
// positions, an exact velocity-constraint solve, and an iterative SHAKE
// solver used for cross-validation and as a general fallback.
package constraint

import (
	"math"

	"tme4a/internal/vec"
)

// Water describes the rigid geometry of a 3-site water model.
type Water struct {
	ROH   float64 // O–H bond length (nm)
	Theta float64 // H–O–H angle (radians)
	MO    float64 // oxygen mass
	MH    float64 // hydrogen mass

	// Canonical-frame offsets derived from the geometry: the oxygen sits at
	// (0, ra), the hydrogens at (±rc, −rb), with the centre of mass at the
	// origin.
	ra, rb, rc float64
	rHH        float64
	mTot       float64
}

// NewWater precomputes the canonical geometry used by SETTLE.
func NewWater(roh, theta, mo, mh float64) *Water {
	w := &Water{ROH: roh, Theta: theta, MO: mo, MH: mh}
	w.rHH = 2 * roh * math.Sin(theta/2)
	h := roh * math.Cos(theta/2) // O-to-HH-midline distance
	w.mTot = mo + 2*mh
	w.ra = 2 * mh * h / w.mTot
	w.rb = h - w.ra
	w.rc = w.rHH / 2
	return w
}

// Settle constrains the proposed positions (a1, b1, c1) of one water
// molecule (O, H, H) to the rigid geometry, given reference positions
// (a0, b0, c0) that satisfy the constraints. It implements the analytic
// SETTLE rotation scheme; the constrained positions preserve the centre of
// mass of the proposal.
func (w *Water) Settle(a0, b0, c0, a1, b1, c1 vec.V) (a, b, c vec.V) {
	ra, rb, rc := w.ra, w.rb, w.rc

	// Reference molecule edges and the COM of the proposal.
	xb0 := b0.Sub(a0)
	xc0 := c0.Sub(a0)
	com := a1.Scale(w.MO).Add(b1.Scale(w.MH)).Add(c1.Scale(w.MH)).Scale(1 / w.mTot)
	xa1 := a1.Sub(com)
	xb1 := b1.Sub(com)
	xc1 := c1.Sub(com)

	// Orthonormal frame: z ⟂ old molecular plane, x along the projection
	// of the proposed oxygen.
	zax := xb0.Cross(xc0)
	xax := xa1.Cross(zax)
	yax := zax.Cross(xax)
	zax = zax.Normalize()
	xax = xax.Normalize()
	yax = yax.Normalize()

	toFrame := func(v vec.V) vec.V { //tmevet:ignore noalloc -- called in place and never stored, so it stays on the stack (TestStepSteadyStateAllocs)
		return vec.V{v.Dot(xax), v.Dot(yax), v.Dot(zax)}
	}
	fromFrame := func(v vec.V) vec.V { //tmevet:ignore noalloc -- called in place and never stored, so it stays on the stack (TestStepSteadyStateAllocs)
		return xax.Scale(v[0]).Add(yax.Scale(v[1])).Add(zax.Scale(v[2]))
	}

	b0d := toFrame(xb0)
	c0d := toFrame(xc0)
	a1d := toFrame(xa1)
	b1d := toFrame(xb1)
	c1d := toFrame(xc1)

	// φ: tilt of the symmetry axis out of plane; ψ: rocking of the H pair.
	sinphi := clamp(a1d[2] / ra)
	cosphi := math.Sqrt(1 - sinphi*sinphi)
	sinpsi := clamp((b1d[2] - c1d[2]) / (2 * rc * cosphi))
	cospsi := math.Sqrt(1 - sinpsi*sinpsi)

	ya2d := ra * cosphi
	xb2d := -rc * cospsi
	yb2d := -rb*cosphi - rc*sinpsi*sinphi
	yc2d := -rb*cosphi + rc*sinpsi*sinphi

	// θ: in-plane rotation fixed by angular-momentum matching against the
	// reference orientation.
	alpha := xb2d*(b0d[0]-c0d[0]) + b0d[1]*yb2d + c0d[1]*yc2d
	beta := xb2d*(c0d[1]-b0d[1]) + b0d[0]*yb2d + c0d[0]*yc2d
	gamma := b0d[0]*b1d[1] - b1d[0]*b0d[1] + c0d[0]*c1d[1] - c1d[0]*c0d[1]
	al2be2 := alpha*alpha + beta*beta
	sintheta := clamp((alpha*gamma - beta*math.Sqrt(math.Max(0, al2be2-gamma*gamma))) / al2be2)
	costheta := math.Sqrt(1 - sintheta2(sintheta))

	a3d := vec.V{-ya2d * sintheta, ya2d * costheta, a1d[2]}
	b3d := vec.V{
		xb2d*costheta - yb2d*sintheta,
		xb2d*sintheta + yb2d*costheta,
		b1d[2],
	}
	c3d := vec.V{
		-xb2d*costheta - yc2d*sintheta,
		-xb2d*sintheta + yc2d*costheta,
		c1d[2],
	}

	a = fromFrame(a3d).Add(com)
	b = fromFrame(b3d).Add(com)
	c = fromFrame(c3d).Add(com)
	return a, b, c
}

func sintheta2(s float64) float64 { return s * s }

func clamp(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}

// SettleVelocities removes the components of relative velocity along the
// three rigid bonds of a water whose positions already satisfy the
// constraints. It solves the exact 3×3 linear system for the constraint
// impulses (velocity constraints are linear, so one solve is exact — the
// velocity half of SETTLE).
func (w *Water) SettleVelocities(a, b, c vec.V, va, vb, vc *vec.V) {
	type bond struct {
		i, j int
		e    vec.V
	}
	pos := [3]vec.V{a, b, c}
	vel := [3]*vec.V{va, vb, vc}
	mass := [3]float64{w.MO, w.MH, w.MH}
	bonds := [3]bond{
		{0, 1, pos[0].Sub(pos[1]).Normalize()},
		{0, 2, pos[0].Sub(pos[2]).Normalize()},
		{1, 2, pos[1].Sub(pos[2]).Normalize()},
	}
	// A·λ = −g, where g_b = (v_i − v_j)·e_b and applying impulse λ_b adds
	// +λ_b e_b/m_i to v_i, −λ_b e_b/m_j to v_j.
	var A [3][3]float64
	var g [3]float64
	for bi, bb := range bonds {
		g[bi] = vel[bb.i].Sub(*vel[bb.j]).Dot(bb.e)
		for bj, ob := range bonds {
			var coef float64
			if bb.i == ob.i {
				coef += bb.e.Dot(ob.e) / mass[bb.i]
			}
			if bb.i == ob.j {
				coef -= bb.e.Dot(ob.e) / mass[bb.i]
			}
			if bb.j == ob.i {
				coef -= bb.e.Dot(ob.e) / mass[bb.j]
			}
			if bb.j == ob.j {
				coef += bb.e.Dot(ob.e) / mass[bb.j]
			}
			A[bi][bj] = coef
		}
	}
	lam := solve3(A, [3]float64{-g[0], -g[1], -g[2]})
	for bi, bb := range bonds {
		*vel[bb.i] = vel[bb.i].Add(bonds[bi].e.Scale(lam[bi] / mass[bb.i]))
		*vel[bb.j] = vel[bb.j].Sub(bonds[bi].e.Scale(lam[bi] / mass[bb.j]))
	}
}

// solve3 solves a 3×3 linear system by Gaussian elimination with partial
// pivoting.
func solve3(a [3][3]float64, b [3]float64) [3]float64 {
	for col := 0; col < 3; col++ {
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		for r := col + 1; r < 3; r++ {
			f := a[r][col] / a[col][col]
			for cc := col; cc < 3; cc++ {
				a[r][cc] -= f * a[col][cc]
			}
			b[r] -= f * b[col]
		}
	}
	var x [3]float64
	for r := 2; r >= 0; r-- {
		s := b[r]
		for cc := r + 1; cc < 3; cc++ {
			s -= a[r][cc] * x[cc]
		}
		x[r] = s / a[r][r]
	}
	return x
}
