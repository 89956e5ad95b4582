package pmesh

import (
	"tme4a/internal/bspline"
	"tme4a/internal/grid"
	"tme4a/internal/vec"
)

// PotentialAt interpolates the grid potential at a single position, the
// tests' pointwise reference for Interpolate.
func (m *Mesher) PotentialAt(phi *grid.G, r vec.V) float64 {
	p := m.P
	var wx, wy, wz, d [MaxOrder]float64
	mx := bspline.Weights(p, r[0]*m.invH[0], wx[:p], d[:p])
	my := bspline.Weights(p, r[1]*m.invH[1], wy[:p], d[:p])
	mz := bspline.Weights(p, r[2]*m.invH[2], wz[:p], d[:p])
	var pot float64
	for c := 0; c < p; c++ {
		for b := 0; b < p; b++ {
			for a := 0; a < p; a++ {
				at := wrap(mx+a, phi.N[0]) + phi.N[0]*(wrap(my+b, phi.N[1])+phi.N[1]*wrap(mz+c, phi.N[2]))
				pot += phi.Data[at] * wx[a] * wy[b] * wz[c]
			}
		}
	}
	return pot
}

// gridSum returns the sum over all points of g.
func gridSum(g *grid.G) float64 {
	var s float64
	for _, v := range g.Data {
		s += v
	}
	return s
}
