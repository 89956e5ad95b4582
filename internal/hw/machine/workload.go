package machine

import (
	"math"

	"tme4a/internal/bonded"
	"tme4a/internal/md"
	"tme4a/internal/vec"
)

// Workload summarizes the per-node work of one MD step after spatial
// decomposition onto the torus (each node owns a rectangular cell).
type Workload struct {
	NNodes      int
	Atoms       []int     // atoms homed on each node
	Waters      []int     // rigid waters homed on each node
	BondedTerms []int     // bonded terms assigned to each node
	Pairs       []float64 // estimated short-range pair evaluations per node
	ImportAtoms []float64 // estimated halo (import region) atoms per node
	TotalAtoms  int
	Box         vec.Box
}

// Decompose assigns the system's atoms to torus nodes and estimates the
// derived per-node quantities for a short-range cutoff rc.
func (cfg Config) Decompose(sys *md.System, ff *bonded.FF, rc float64) *Workload {
	n := cfg.Torus.NNodes()
	w := &Workload{
		NNodes:      n,
		Atoms:       make([]int, n),
		Waters:      make([]int, n),
		BondedTerms: make([]int, n),
		Pairs:       make([]float64, n),
		ImportAtoms: make([]float64, n),
		TotalAtoms:  sys.N(),
		Box:         sys.Box,
	}
	nodeOf := func(r vec.V) int {
		r = sys.Box.Wrap(r)
		var c [3]int
		for ax := 0; ax < 3; ax++ {
			c[ax] = int(r[ax] / sys.Box.L[ax] * float64(cfg.Torus.Size[ax]))
			if c[ax] >= cfg.Torus.Size[ax] {
				c[ax] = cfg.Torus.Size[ax] - 1
			}
		}
		return cfg.Torus.NodeID(c)
	}
	for i := range sys.Pos {
		w.Atoms[nodeOf(sys.Pos[i])]++
	}
	for _, trip := range sys.RigidWaters {
		w.Waters[nodeOf(sys.Pos[trip[0]])]++
	}
	if ff != nil {
		for _, b := range ff.Bonds {
			w.BondedTerms[nodeOf(sys.Pos[b.I])]++
		}
		for _, a := range ff.Angles {
			w.BondedTerms[nodeOf(sys.Pos[a.I])]++
		}
		for _, d := range ff.Dihedrals {
			w.BondedTerms[nodeOf(sys.Pos[d.I])]++
		}
	}
	// Pair and halo estimates from the mean density (adequate for timing:
	// liquid systems are near-uniform).
	density := float64(sys.N()) / sys.Box.Volume()
	halfShell := 0.5 * (4.0 / 3.0) * math.Pi * rc * rc * rc * density
	cell := vec.V{
		sys.Box.L[0] / float64(cfg.Torus.Size[0]),
		sys.Box.L[1] / float64(cfg.Torus.Size[1]),
		sys.Box.L[2] / float64(cfg.Torus.Size[2]),
	}
	importVol := (cell[0]+2*rc)*(cell[1]+2*rc)*(cell[2]+2*rc) - cell[0]*cell[1]*cell[2]
	for i := 0; i < n; i++ {
		w.Pairs[i] = float64(w.Atoms[i]) * halfShell
		w.ImportAtoms[i] = importVol * density
	}
	return w
}

// maxInt and maxFloat return the maxima of per-node arrays.
func maxInt(a []int) int {
	m := 0
	for _, v := range a {
		if v > m {
			m = v
		}
	}
	return m
}

func maxFloat(a []float64) float64 {
	m := 0.0
	for _, v := range a {
		if v > m {
			m = v
		}
	}
	return m
}
