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

// assignAny spreads the charges onto the planes [zlo, zhi), which data
// holds with plane zlo first, through the order-generic body at any order:
// at p = 6 it is the generic oracle of spread6, which AssignTo and
// AssignPlanes run.
func (m *Mesher) assignAny(data []float64, zlo, zhi int, pos []vec.V, q []float64) {
	for i, r := range pos {
		m.spreadAny(data, zlo, zhi, r, q[i])
	}
}

// interpolateAny gathers the atoms listed in idx (all atoms when idx is
// nil) from the enz planes from zlo that data holds, through the
// order-generic body at any order, writing eterm[i] and accumulating f[i]
// as InterpolatePlanes does: at p = 6 it is the generic oracle of gather6.
func (m *Mesher) interpolateAny(data []float64, zlo, enz int, idx []int32, pos []vec.V, q, eterm []float64, f []vec.V) {
	if idx == nil {
		for i := range pos {
			idx = append(idx, int32(i))
		}
	}
	for _, i := range idx {
		if q[i] != 0 {
			eterm[i] = m.gatherAny(data, zlo, enz, pos[i], q[i], f, int(i))
		}
	}
}
