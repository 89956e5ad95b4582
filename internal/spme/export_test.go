package spme

import "tme4a/internal/grid"

// PotentialGrid is PotentialGridInto onto a fresh grid.
func (s *Solver) PotentialGrid(q *grid.G) *grid.G {
	phi := grid.New(s.Prm.N[0], s.Prm.N[1], s.Prm.N[2])
	s.PotentialGridInto(phi, q)
	return phi
}
