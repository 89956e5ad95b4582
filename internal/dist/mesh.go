// Plan (shared, immutable) and Mesh (per-rank grid state) for the
// decomposed TME pipeline. The stage sequence per mesh solve, mirroring
// core.Solver.meshPotentialFromCharges:
//
//	AssignOwn                       // finest charges, own planes
//	for k = 0..L−1:                 // downward pass
//	    RestrictXY(k) → exchange Restrict[k] → RestrictZ(k)
//	top: gather Q[L] planes to root, SPME, scatter into Phi[L]
//	for k = L−1..0:                 // upward pass
//	    ProlongXY(k) → exchange Prolong[k] → ProlongZ(k)
//	    for ν = 0..M−1:
//	        ConvXY(k,ν) → exchange Conv[k] → ConvZAccum(k,ν)
//	exchange Interp → Interp        // back interpolation, own atoms
//
// "exchange H" means: every rank packs its sleeves (Halo.Pack), delivers
// them (channels in internal/rank, direct copies in the sequential
// Solver), unpacks received sleeves (Halo.Unpack) and fills its own planes
// (Halo.FillOwn). The x/y passes run the exported per-axis passes of
// internal/grid on the rank's own planes — every row lies within one
// plane, so the values are bitwise those of the serial full-grid pass.

package dist

import (
	"tme4a/internal/core"
	"tme4a/internal/grid"
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

// AssignOwn zeroes the rank's finest charge block and scatters the listed
// atoms' charges onto it (idx ascending global index — the serial particle
// order).
//
//tme:noalloc
func (m *Mesh) AssignOwn(idx []int32, pos []vec.V, q []float64) {
	m.Q[0].Zero()
	zlo, _ := m.P.D.ZRange(0, m.Rank)
	m.P.Mesher.AssignPlanes(m.Q[0], zlo, idx, pos, q)
}

// RestrictXY runs the x and y restriction passes on the rank's level-k
// charge block, returning the xy-restricted field whose z sleeves are
// exchanged under Plan.Restrict[k].
//
//tme:noalloc
func (m *Mesh) RestrictXY(k int) *grid.G {
	grid.RestrictAxisInto(m.rxyA[k], m.Q[k], 0, m.P.J)
	grid.RestrictAxisInto(m.rxyB[k], m.rxyA[k], 1, m.P.J)
	return m.rxyB[k]
}

// RestrictExt returns the extended buffer the Restrict[k] exchange fills.
func (m *Mesh) RestrictExt(k int) *grid.G { return m.rext[k] }

// RestrictZ completes the level-(k+1) charges from the filled extended
// buffer.
//
//tme:noalloc
func (m *Mesh) RestrictZ(k int) { restrictZ(m.Q[k+1], m.rext[k], m.P.J, m.rasc[k]) }

// ProlongXY runs the x and y prolongation passes on the rank's level-(k+1)
// potential block, returning the field whose z sleeves are exchanged under
// Plan.Prolong[k].
//
//tme:noalloc
func (m *Mesh) ProlongXY(k int) *grid.G {
	grid.ProlongAxisInto(m.pxyA[k], m.Phi[k+1], 0, m.P.J)
	grid.ProlongAxisInto(m.pxyB[k], m.pxyA[k], 1, m.P.J)
	return m.pxyB[k]
}

// ProlongExt returns the extended buffer the Prolong[k] exchange fills.
func (m *Mesh) ProlongExt(k int) *grid.G { return m.pext[k] }

// ProlongZ sets the rank's level-k potential block by replaying its
// prolongation tap lists against the filled extended buffer.
//
//tme:noalloc
func (m *Mesh) ProlongZ(k int) { prolongZ(m.Phi[k], m.pext[k], m.ptaps[k]) }

// ConvXY runs Gaussian ν's x and y convolution passes on the rank's
// level-k charge block, returning the field whose z sleeves are exchanged
// under Plan.Conv[k].
//
//tme:noalloc
func (m *Mesh) ConvXY(k, v int) *grid.G {
	grid.ConvAxis(m.cxyA[k], m.Q[k], 0, m.P.Kern[v][0])
	grid.ConvAxis(m.cxyB[k], m.cxyA[k], 1, m.P.Kern[v][1])
	return m.cxyB[k]
}

// ConvExt returns the extended buffer the Conv[k] exchange fills.
func (m *Mesh) ConvExt(k int) *grid.G { return m.cext[k] }

// ConvZAccum accumulates Gaussian ν's z pass into the rank's level-k
// potential block, using the level-scaled kernel exactly as
// core.Solver.levelConvAccum does (level k is core's 1-based level k+1).
//
//tme:noalloc
func (m *Mesh) ConvZAccum(k, v int) {
	convZAccum(m.Phi[k], m.cext[k], m.P.KernZ[k][v], m.cdesc[k])
}

// InterpExt returns the extended finest-potential buffer the Interp
// exchange fills.
func (m *Mesh) InterpExt() *grid.G { return m.iext }

// Interp back-interpolates the listed atoms (base plane in the rank's
// block, ascending global index) against the filled extended potential,
// writing per-atom energy terms into eterm and accumulating forces into f
// (both indexed by global atom index).
//
//tme:noalloc
func (m *Mesh) Interp(idx []int32, pos []vec.V, q []float64, eterm []float64, f []vec.V) {
	zlo, _ := m.P.D.ZRange(0, m.Rank)
	m.P.Mesher.InterpolatePlanes(m.iext, zlo, idx, pos, q, eterm, f)
}
