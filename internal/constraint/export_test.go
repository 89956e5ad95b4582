package constraint

import (
	"math"

	"tme4a/internal/vec"
)

// RHH returns the rigid H–H distance.
func (w *Water) RHH() float64 { return w.rHH }

// Shake iteratively constrains the proposed positions of one water to the
// rigid geometry (reference implementation used to cross-validate SETTLE).
// It returns the constrained positions and the number of iterations used.
func (w *Water) Shake(a0, b0, c0, a1, b1, c1 vec.V, tol float64, maxIter int) (a, b, c vec.V, iters int) {
	pos0 := [3]vec.V{a0, b0, c0}
	pos := [3]vec.V{a1, b1, c1}
	mass := [3]float64{w.MO, w.MH, w.MH}
	type cons struct {
		i, j int
		d2   float64
	}
	cs := [3]cons{
		{0, 1, w.ROH * w.ROH},
		{0, 2, w.ROH * w.ROH},
		{1, 2, w.rHH * w.rHH},
	}
	for iters = 0; iters < maxIter; iters++ {
		converged := true
		for _, cc := range cs {
			d := pos[cc.i].Sub(pos[cc.j])
			diff := d.Norm2() - cc.d2
			if math.Abs(diff) > tol*cc.d2 {
				converged = false
				ref := pos0[cc.i].Sub(pos0[cc.j])
				gk := diff / (2 * d.Dot(ref) * (1/mass[cc.i] + 1/mass[cc.j]))
				pos[cc.i] = pos[cc.i].Sub(ref.Scale(gk / mass[cc.i]))
				pos[cc.j] = pos[cc.j].Add(ref.Scale(gk / mass[cc.j]))
			}
		}
		if converged {
			break
		}
	}
	return pos[0], pos[1], pos[2], iters
}
