// Package pmesh implements the particle–mesh operations shared by SPME,
// B-spline MSM and TME: charge assignment (anterpolation, paper Eq. (12))
// and back interpolation of potentials, energies and forces (Eq. (13)–(17)).
//
// These are the operations the MDGRAPE-4A LRU accelerates in hardware; this
// package is the double-precision software reference. The fixed-point
// hardware datapath lives in internal/hw/lru.
//
// Both AssignTo and Interpolate are parallel and deterministic: the mesh is
// partitioned by z-plane ownership (scatter) and the energy reduction folds
// per-atom terms over fixed-size particle chunks (gather), so results are
// bitwise independent of GOMAXPROCS.
package pmesh

import (
	"fmt"
	"sync"

	"tme4a/internal/bspline"
	"tme4a/internal/grid"
	"tme4a/internal/obs"
	"tme4a/internal/par"
	"tme4a/internal/vec"
)

// MaxOrder is the largest supported B-spline order; the hot loops use
// fixed [MaxOrder]float64 weight scratch to stay allocation-free.
// Params.Validate in the solver packages checks against it so a bad
// -order reaches the user as an error before construction panics here.
const MaxOrder = 16

// Mesher spreads charges onto, and gathers potentials from, a periodic
// N[0]×N[1]×N[2] mesh over box using order-p central B-splines.
type Mesher struct {
	P   int
	N   [3]int
	Box vec.Box
	// invH[j] = N[j]/L[j] converts coordinates to grid units.
	invH [3]float64
	// o, when non-nil, times AssignTo and Interpolate as the charge-assign
	// and back-interpolation stages.
	o *obs.Recorder
}

// SetObs attaches a stage recorder (nil detaches). Not safe to call
// concurrently with AssignTo/Interpolate.
func (m *Mesher) SetObs(r *obs.Recorder) { m.o = r }

// NewMesher returns a mesher of even B-spline order p on an N-point grid
// over box. p is capped at 16 (the fixed weight-scratch size of the
// spreading and interpolation kernels).
func NewMesher(p int, n [3]int, box vec.Box) *Mesher {
	if p < 2 || p%2 != 0 {
		panic(fmt.Sprintf("pmesh: order must be even and >= 2, got %d", p))
	}
	if p > MaxOrder {
		panic(fmt.Sprintf("pmesh: order must be <= %d (fixed weight scratch), got %d", MaxOrder, p))
	}
	m := &Mesher{P: p, N: n, Box: box}
	for j := 0; j < 3; j++ {
		if n[j] < p {
			panic(fmt.Sprintf("pmesh: grid dimension %d smaller than spline order %d", n[j], p))
		}
		m.invH[j] = float64(n[j]) / box.L[j]
	}
	return m
}

// H returns the grid spacings (h_x, h_y, h_z).
func (m *Mesher) H() vec.V {
	return vec.V{1 / m.invH[0], 1 / m.invH[1], 1 / m.invH[2]}
}

// AssignTo accumulates the charge assignment onto an existing grid.
//
// The scatter is parallelized by z-plane ownership: each worker walks all
// particles in index order but writes only the grid planes it owns, so
// every mesh point accumulates its contributions in exactly the serial
// order — no atomics, no privatized grids, and bitwise-identical results at
// any GOMAXPROCS. Workers reject particles whose p-plane support misses
// their slab with a cheap bspline.Base test before computing any weights.
//
//tme:noalloc
func (m *Mesher) AssignTo(g *grid.G, pos []vec.V, q []float64) {
	sp := m.o.Start(obs.StageAssign)
	par.ForRangeGrain(m.N[2], 1, job{m: m, g: g, pos: pos, q: q}, job.assignSlab)
	sp.Stop()
}

// job is the argument of AssignTo's and Interpolate's parallel bodies.
type job struct {
	m     *Mesher
	g     *grid.G // the grid spread onto or gathered from
	pos   []vec.V
	q     []float64
	eterm []float64 // Interpolate's per-atom energy terms
	f     []vec.V
}

// assignSlab scatters every particle whose support touches grid planes
// [zlo, zhi), writing only those planes.
//
//tme:noalloc
func (j job) assignSlab(zlo, zhi int) {
	plane := j.m.N[0] * j.m.N[1]
	data := j.g.Data[plane*zlo : plane*zhi]
	for i, r := range j.pos {
		j.m.spread(data, zlo, zhi, r, j.q[i])
	}
}

// wrapRun fills idx with stride·wrap(base+k, n) for k = 0, 1, …: one
// modulo for the run instead of one per point.
//
//tme:noalloc
func wrapRun(idx []int, base, n, stride int) {
	j := wrap(base, n)
	for k := range idx {
		idx[k] = stride * j
		if j++; j == n {
			j = 0
		}
	}
}

// supportPlanes sets oz[c] to the offset, counted in planes from zlo, of
// the c-th z-plane of the support of an atom at grid coordinate uz, or to
// −1 where that plane lies outside [zlo, zhi), and reports whether any
// plane lies inside. It is the one hit test: what SupportHits tells a
// sender is what spread does at the receiver.
//
//tme:noalloc
func (m *Mesher) supportPlanes(oz []int, uz float64, zlo, zhi int) bool {
	wrapRun(oz, bspline.Base(m.P, uz), m.N[2], 1)
	hit := false
	for c, iz := range oz {
		if iz >= zlo && iz < zhi {
			oz[c] = iz - zlo
			hit = true
		} else {
			oz[c] = -1
		}
	}
	return hit
}

// spread is the one charge-assignment body: it adds charge qi at r to the
// mesh planes [zlo, zhi), which data holds with plane zlo first (a slab of
// the full grid or a rank's plane block alike). An atom whose p-plane
// support misses the block is rejected before any weight is evaluated.
// Each mesh point receives qi·wz[c]·wy[b]·wx[a], the support walked in
// c, b, a order; the wrapped indices are found once per atom per axis, and
// a support that does not wrap in x — all but p−1 of every nx base
// positions — is a contiguous run of its row.
//
//tme:noalloc
func (m *Mesher) spread(data []float64, zlo, zhi int, r vec.V, qi float64) {
	if qi == 0 {
		return
	}
	p := m.P
	nx, ny := m.N[0], m.N[1]
	uz := r[2] * m.invH[2]
	var ox, oy, oz [MaxOrder]int
	if !m.supportPlanes(oz[:p], uz, zlo, zhi) {
		return
	}
	var wx, wy, wz, d [MaxOrder]float64
	ux := r[0] * m.invH[0]
	uy := r[1] * m.invH[1]
	wrapRun(ox[:p], bspline.Weights(p, ux, wx[:p], d[:p]), nx, 1)
	wrapRun(oy[:p], bspline.Weights(p, uy, wy[:p], d[:p]), ny, nx)
	bspline.Weights(p, uz, wz[:p], d[:p])
	bx := ox[0]
	contiguous := bx+p <= nx
	for c := 0; c < p; c++ {
		if oz[c] < 0 {
			continue
		}
		qz := qi * wz[c]
		plane := data[nx*ny*oz[c] : nx*ny*(oz[c]+1)]
		for b := 0; b < p; b++ {
			qyz := qz * wy[b]
			row := plane[oy[b] : oy[b]+nx]
			if contiguous {
				seg := row[bx : bx+p]
				for a, w := range wx[:len(seg)] {
					seg[a] += float64(qyz * w)
				}
				continue
			}
			for a, w := range wx[:p] {
				row[ox[a]] += float64(qyz * w)
			}
		}
	}
}

// energyChunk is the fixed particle-chunk size of the interpolation energy
// fold (FoldEnergy). Chunk boundaries depend only on the particle count —
// never on GOMAXPROCS or a rank count — so the summation order (and hence
// the energy, bitwise) is identical however the atoms were divided.
const energyChunk = 256

// etermPool recycles the per-call per-atom energy-term slices.
var etermPool = sync.Pool{New: func() interface{} { return new([]float64) }}

// gatherGrain is the smallest atom range of one parallel gather chunk.
const gatherGrain = 64

// Interpolate gathers the per-atom electrostatic potentials φ_i from the
// grid potential phi (Eq. (15)) and accumulates forces F_i = −q_i ∇φ(r_i)
// (Eq. (16)–(17)) into f. It returns the interaction energy
// E = ½ Σ q_i φ_i (Eq. (14)): the per-atom terms, gathered in parallel
// over equal atom ranges, folded by FoldEnergy over its fixed chunks. Each
// atom writes only its own term and force, so the split moves no bit.
//
//tme:noalloc
func (m *Mesher) Interpolate(phi *grid.G, pos []vec.V, q []float64, f []vec.V) float64 {
	sp := m.o.Start(obs.StageInterp)
	n := len(pos)
	pp := etermPool.Get().(*[]float64)
	if cap(*pp) < n {
		*pp = make([]float64, n) //tmevet:ignore noalloc -- grow-once: reused via etermPool in steady state
	}
	eterm := (*pp)[:n]
	par.ForRangeGrain(n, gatherGrain, job{m, phi, pos, q, eterm, f}, job.gatherAtoms)
	energy := FoldEnergy(eterm, q)
	etermPool.Put(pp)
	sp.Stop()
	return energy
}

// gatherAtoms gathers atoms [lo, hi) from the full periodic grid.
//
//tme:noalloc
func (j job) gatherAtoms(lo, hi int) {
	for i := lo; i < hi; i++ {
		if j.q[i] != 0 {
			j.eterm[i] = j.m.gather(j.g.Data, 0, j.m.N[2], j.pos[i], j.q[i], j.f, i)
		}
	}
}

// FoldEnergy sums per-atom energy terms ½·q_i·φ_i into the interpolation
// energy, the one reduction order of every engine: each fixed
// energyChunk-atom chunk accumulates its members' terms in ascending atom
// order (neutral atoms have no term and are skipped), then the chunk
// partials add up in ascending chunk order.
//
//tme:noalloc
func FoldEnergy(eterm, q []float64) float64 {
	var energy float64
	n := len(q)
	for lo := 0; lo < n; lo += energyChunk {
		hi := lo + energyChunk
		if hi > n {
			hi = n
		}
		var pc float64
		for i := lo; i < hi; i++ {
			if q[i] != 0 {
				pc += eterm[i]
			}
		}
		energy += pc
	}
	return energy
}

// gather is the one back-interpolation body: it interpolates the potential
// and its gradient at r from data, which holds the enz mesh planes starting
// at global plane zlo — the whole periodic grid (zlo = 0, enz = N[2]), or a
// rank's block with its upper halo planes appended, where the support must
// lie inside the window. It returns the atom's energy term ½·qi·φ and, when
// f is non-nil, subtracts qi·∇φ from f[i]. The tensor-product weights are
// contracted one axis at a time, innermost first, each sum folded in
// ascending index: every x-run of p values folds into Σv·wx and Σv·dx
// (starting at the first product); the p runs of a plane fold those,
// weighted by wy[b] and dy[b], from +0 into its three sums (value, ∂x, ∂y);
// the p planes fold them from +0 into pot, gx, gy (weight wz[c]) and gz (the
// value sum, weight dz[c]). The wrapped indices are found once per atom per
// axis, and a support that does not wrap in x is read as a contiguous run of
// its row.
//
//tme:noalloc
func (m *Mesher) gather(data []float64, zlo, enz int, r vec.V, qi float64, f []vec.V, i int) float64 {
	p := m.P
	nx, ny, nz := m.N[0], m.N[1], m.N[2]
	var wx, wy, wz, dx, dy, dz, vals [MaxOrder]float64
	var ox, oy, oz [MaxOrder]int
	wrapRun(ox[:p], bspline.Weights(p, r[0]*m.invH[0], wx[:p], dx[:p]), nx, 1)
	wrapRun(oy[:p], bspline.Weights(p, r[1]*m.invH[1], wy[:p], dy[:p]), ny, nx)
	lz := wrap(bspline.Weights(p, r[2]*m.invH[2], wz[:p], dz[:p]), nz) - zlo
	for c := range oz[:p] {
		// Only the full ring wraps; a block window holds its halo planes
		// past its own, so a plane outside it is a caller error.
		if lz >= enz {
			lz -= nz
		}
		if lz < 0 {
			panic("pmesh: atom support outside the interpolation window")
		}
		oz[c] = nx * ny * lz
		lz++
	}
	bx := ox[0]
	contiguous := bx+p <= nx
	var pot, gx, gy, gz float64
	for c := 0; c < p; c++ {
		var pw, pdx, pdy float64
		for b := 0; b < p; b++ {
			row := data[oz[c]+oy[b] : oz[c]+oy[b]+nx]
			seg := vals[:p]
			if contiguous {
				seg = row[bx : bx+p]
			} else {
				for a := range seg {
					seg[a] = row[ox[a]]
				}
			}
			sw, sd := float64(seg[0]*wx[0]), float64(seg[0]*dx[0])
			for a := 1; a < len(seg); a++ {
				sw += float64(seg[a] * wx[a])
				sd += float64(seg[a] * dx[a])
			}
			pw += float64(sw * wy[b])
			pdx += float64(sd * wy[b])
			pdy += float64(sw * dy[b])
		}
		pot += float64(pw * wz[c])
		gx += float64(pdx * wz[c])
		gy += float64(pdy * wz[c])
		gz += float64(pw * dz[c])
	}
	if f != nil {
		// ∇φ picks up 1/h per axis from d/dr = (1/h) d/du.
		f[i][0] -= float64(qi * gx * m.invH[0])
		f[i][1] -= float64(qi * gy * m.invH[1])
		f[i][2] -= float64(qi * gz * m.invH[2])
	}
	return 0.5 * qi * pot
}

func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}
