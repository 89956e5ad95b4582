// Plan (shared, immutable), Mesh (per-rank grid state) and the one
// definition of the decomposed TME pipeline's stage order, Mesh.Solve —
// the block form of spme.Cycle.MeshPotential. The x/y passes
// run the exported per-axis passes of internal/grid on the rank's own
// planes — every row lies within one plane, so the values are bitwise those
// of the serial full-grid pass; the z passes (ops.go) read foreign planes
// from extended buffers an Exchanger fills.

package dist

import (
	"tme4a/internal/core"
	"tme4a/internal/grid"
	"tme4a/internal/obs"
	"tme4a/internal/pmesh"
	"tme4a/internal/vec"
)

// Plan holds the immutable decomposition tables shared by all ranks: halo
// specs per level and the solver's kernels. Safe for concurrent read-only
// use once built.
type Plan struct {
	D      Decomp
	TME    *core.Solver
	Mesher *pmesh.Mesher
	J      []float64
	Kern   [][3][]float64
	KernZ  [][][]float64

	// Restrict[k], Prolong[k], Conv[k] are the exchange tables of the
	// downward, upward and convolution z passes between levels k and k+1
	// (Prolong/Conv live on level-k fields, Restrict on the xy-restricted
	// intermediate). Interp is the finest-grid potential exchange feeding
	// back interpolation.
	Restrict []*Halo
	Prolong  []*Halo
	Conv     []*Halo
	Interp   *Halo
}

// NewPlan builds the decomposition plan for r ranks over tme's level
// hierarchy. It fails if any level's plane count does not divide evenly.
func NewPlan(tme *core.Solver, r int) (*Plan, error) {
	j := tme.TwoScale()
	half := len(j) / 2
	d, err := NewDecomp(tme.Prm, half, r)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		D:      d,
		TME:    tme,
		Mesher: tme.Mesher,
		J:      j,
		Kern:   tme.Kernels(),
		KernZ:  tme.LevelZKernels(),
	}
	L := d.Levels
	p.Restrict = make([]*Halo, L)
	p.Prolong = make([]*Halo, L)
	p.Conv = make([]*Halo, L)
	for k := 0; k < L; k++ {
		fd, cd := d.Dims(k), d.Dims(k+1)
		// Restriction reads fine planes [2czlo−half, 2czhi+half−1) of the
		// xy-restricted field (coarse x/y, fine z).
		if p.Restrict[k], err = NewHalo(r, fd[2], half, half-1, cd[0]*cd[1]); err != nil {
			return nil, err
		}
		// Prolongation reads coarse planes; half/2+1 covers every serial
		// tap (buildProlongTaps panics otherwise, so the bound is checked
		// constructively at plan time).
		ph := half/2 + 1
		if p.Prolong[k], err = NewHalo(r, cd[2], ph, ph, fd[0]*fd[1]); err != nil {
			return nil, err
		}
		// The level convolution reads gc planes on each side.
		if p.Conv[k], err = NewHalo(r, fd[2], d.Gc, d.Gc, fd[0]*fd[1]); err != nil {
			return nil, err
		}
	}
	// Back interpolation reads planes [b, b+p) for base planes b in the
	// own block: p−1 upper halo planes.
	if p.Interp, err = NewHalo(r, d.N[2], 0, d.Order-1, d.N[0]*d.N[1]); err != nil {
		return nil, err
	}
	return p, nil
}

// TopN returns the top-level grid dimensions.
func (p *Plan) TopN() [3]int { return p.D.Dims(p.D.Levels) }

// Mesh is one rank's block of every level grid plus the scratch and
// extended buffers of its z passes. All storage is preallocated; a full
// solve allocates nothing.
type Mesh struct {
	P    *Plan
	Rank int

	// Q[k] and Phi[k] are the rank's owned planes of the level-k charge
	// and potential grids, k = 0..Levels (level Levels is the top grid).
	Q, Phi []*grid.G

	// Per-level scratch: two-stage x/y intermediates and the z-pass
	// extended buffers.
	rxyA, rxyB, rext []*grid.G
	pxyA, pxyB, pext []*grid.G
	cxyA, cxyB, cext []*grid.G
	iext             *grid.G

	// Tap → plane-offset tables of the z passes (see ops.go): ptaps[k] are
	// the rank's prolongation tap lists for level k, rasc[k] and cdesc[k]
	// the ascending and descending slot offsets of rext[k] and cext[k].
	ptaps       [][]planeTaps
	rasc, cdesc [][]int
}

// NewMesh allocates rank r's grid state under plan p.
func (p *Plan) NewMesh(r int) *Mesh {
	d := p.D
	L := d.Levels
	m := &Mesh{P: p, Rank: r}
	m.Q = make([]*grid.G, L+1)
	m.Phi = make([]*grid.G, L+1)
	for k := 0; k <= L; k++ {
		dims := d.Dims(k)
		onz := d.Onz(k)
		m.Q[k] = grid.New(dims[0], dims[1], onz)
		m.Phi[k] = grid.New(dims[0], dims[1], onz)
	}
	m.rxyA = make([]*grid.G, L)
	m.rxyB = make([]*grid.G, L)
	m.rext = make([]*grid.G, L)
	m.pxyA = make([]*grid.G, L)
	m.pxyB = make([]*grid.G, L)
	m.pext = make([]*grid.G, L)
	m.cxyA = make([]*grid.G, L)
	m.cxyB = make([]*grid.G, L)
	m.cext = make([]*grid.G, L)
	m.ptaps = make([][]planeTaps, L)
	m.rasc = make([][]int, L)
	m.cdesc = make([][]int, L)
	for k := 0; k < L; k++ {
		fd, cd := d.Dims(k), d.Dims(k+1)
		fonz, conz := d.Onz(k), d.Onz(k+1)
		m.rxyA[k] = grid.New(fd[0]/2, fd[1], fonz)
		m.rxyB[k] = grid.New(cd[0], cd[1], fonz)
		m.rext[k] = grid.New(cd[0], cd[1], p.Restrict[k].ExtNz)
		m.pxyA[k] = grid.New(2*cd[0], cd[1], conz)
		m.pxyB[k] = grid.New(fd[0], fd[1], conz)
		m.pext[k] = grid.New(fd[0], fd[1], p.Prolong[k].ExtNz)
		m.cxyA[k] = grid.New(fd[0], fd[1], fonz)
		m.cxyB[k] = grid.New(fd[0], fd[1], fonz)
		m.cext[k] = grid.New(fd[0], fd[1], p.Conv[k].ExtNz)
		czlo, _ := d.ZRange(k+1, r)
		fzlo, _ := d.ZRange(k, r)
		ph := p.Prolong[k].Lo
		m.ptaps[k] = buildProlongTaps(p.J, cd[2], czlo, conz, ph, fzlo, fonz, fd[0]*fd[1])
		m.rasc[k] = planeOffsets(p.Restrict[k].ExtNz, cd[0]*cd[1], false)
		m.cdesc[k] = planeOffsets(p.Conv[k].ExtNz, fd[0]*fd[1], true)
	}
	m.iext = grid.New(d.N[0], d.N[1], p.Interp.ExtNz)
	return m
}

// Exchanger is the communication one rank's Solve needs from its
// transport (channels in internal/rank, a lock-step in-memory exchanger in
// this package's tests). Every rank of a solve calls the same sequence of
// methods, so an implementation may match calls by order alone.
type Exchanger interface {
	// Halo runs halo exchange h for this rank: src holds the rank's own
	// planes of the field; on return ext, the rank's extended buffer, holds
	// every plane of its window — own planes via Halo.FillOwn, foreign ones
	// from the sleeves their owners packed out of their src (Halo.Pack,
	// Halo.Unpack).
	Halo(h *Halo, src, ext *grid.G)
	// TopSolve gathers every rank's block q of the top-level charge grid
	// (plane-major, rank order), runs the plan's top solver on the whole
	// grid once, and leaves this rank's block of the potential in phi.
	TopSolve(q, phi *grid.G)
}

// Solve runs rank m.Rank's block of one mesh solve, recording each stage
// on o (nil records nothing). assign lists the atoms whose spline support
// touches the rank's finest planes, interp those whose base plane it owns,
// both in ascending global index — the serial particle order. Charges are
// spread, restricted level by level, solved at the top, and prolonged back
// down with every level's M Gaussian convolutions accumulated on the way;
// the finest potential is then interpolated at the interp atoms, whose
// energy terms land in eterm and forces accumulate into f (both indexed by
// global atom index; pmesh.FoldEnergy over all ranks' terms is the mesh
// energy). A solve allocates nothing.
//
//tme:noalloc
func (m *Mesh) Solve(x Exchanger, o *obs.Recorder, assign, interp []int32, pos []vec.V, q, eterm []float64, f []vec.V) {
	p := m.P
	L := p.D.Levels
	zlo, _ := p.D.ZRange(0, m.Rank)
	sp := o.Start(obs.StageAssign)
	m.Q[0].Zero()
	p.Mesher.AssignPlanes(m.Q[0], zlo, assign, pos, q)
	sp.Stop()

	sp = o.Start(obs.StageRestrict)
	for k := 0; k < L; k++ {
		grid.RestrictAxisInto(m.rxyA[k], m.Q[k], 0, p.J)
		grid.RestrictAxisInto(m.rxyB[k], m.rxyA[k], 1, p.J)
		x.Halo(p.Restrict[k], m.rxyB[k], m.rext[k])
		restrictZ(m.Q[k+1], m.rext[k], p.J, m.rasc[k])
	}
	sp.Stop()

	sp = o.Start(obs.StageTopSPME)
	x.TopSolve(m.Q[L], m.Phi[L])
	sp.Stop()

	for k := L - 1; k >= 0; k-- {
		sp = o.Start(obs.StageProlong)
		grid.ProlongAxisInto(m.pxyA[k], m.Phi[k+1], 0, p.J)
		grid.ProlongAxisInto(m.pxyB[k], m.pxyA[k], 1, p.J)
		x.Halo(p.Prolong[k], m.pxyB[k], m.pext[k])
		prolongZ(m.Phi[k], m.pext[k], m.ptaps[k])
		sp.Stop()
		// Level k is core's 1-based level k+1; the z kernel carries the
		// level scale exactly as core.Solver.levelConvAccum applies it.
		sp = o.Start(obs.StageConv)
		for v := 0; v < p.TME.Prm.M; v++ {
			grid.ConvAxis(m.cxyA[k], m.Q[k], 0, p.Kern[v][0])
			grid.ConvAxis(m.cxyB[k], m.cxyA[k], 1, p.Kern[v][1])
			x.Halo(p.Conv[k], m.cxyB[k], m.cext[k])
			convZAccum(m.Phi[k], m.cext[k], p.KernZ[k][v], m.cdesc[k])
		}
		sp.Stop()
	}

	sp = o.Start(obs.StageInterp)
	x.Halo(p.Interp, m.Phi[0], m.iext)
	p.Mesher.InterpolatePlanes(m.iext, zlo, interp, pos, q, eterm, f)
	sp.Stop()
}
