package nonbond

import (
	"math"
	"math/bits"

	"tme4a/internal/celllist"
	"tme4a/internal/obs"
	"tme4a/internal/par"
	"tme4a/internal/topol"
	"tme4a/internal/vec"
)

// VerletList is a buffered cluster-pair list: the pairs within cutoff+skin
// are found once and reused until any atom has moved more than skin/2, as
// in GROMACS' Verlet scheme (Páll & Hess 2013); at Skin = 0 a stepping
// caller rebuilds it every step. A cluster is the atoms of one
// exclusion-connected group (a TIP3P molecule, an ion) that share an
// ownership cell — in direct mode the whole box — split in index order into
// pieces of at most clusterMax. An entry per (i-cluster, j-cluster, image)
// masks its atom pairs within cutoff+skin that are not excluded and, with
// EwaldExcl, in a second mask its excluded pairs whose minimum image it is,
// at any distance.
//
// Slabs own clusters: a z-layer of cells, in direct mode a block of
// clusters. A list owns the slabs [s0, s1) of its last build — all after
// Rebuild, a rank's after RebuildRange. Each slab sums into its own force
// buffer, a block per slab it touches, and a second pass adds the blocks
// in source order, so results are bitwise independent of GOMAXPROCS.
// Steady-state Rebuild and Compute allocate nothing. The zero VerletList
// is ready once Init (or NewVerletList) has set a Cutoff > 0.
type VerletList struct {
	Box    vec.Box
	Cutoff float64
	Skin   float64
	// EwaldExcl, set before a build, has the list hold the excluded pairs
	// and Compute add their Ewald exclusion correction (Result.EExcl): the
	// pairs' interaction a mesh term includes, taken back. A force field
	// with a mesh sets it.
	EwaldExcl bool

	cl     celllist.List // set up by Init for cutoff+skin
	ns     int
	s0, s1 int // owned slab range of the last build

	// Slab-major clusters: cluster c holds cluster-order atoms [cstart[c],
	// cstart[c+1]), slab s clusters [cbase[s], cbase[s+1]). Atom k is
	// atom[k] moved by img[k] into the list's frame, where clusters are
	// whole; at has clusterMax to spare to view any cluster as an array.
	atom                               []int32
	img                                []vec.V
	at                                 []site
	cstart, cbase                      []int32
	sl                                 []slabList
	blk                                []int32 // blk[s·ns+t]: offset of slab t's block in sl[s].buf, −1 if none
	root, open, cid, cell, size, ccell []int32 // rebuild scratch
	geo                                []geometry
	part                               []SlabPartial
	npairs                             int
	ref                                []vec.V       // positions at build time
	k                                  *kernel       // of the last Compute
	o                                  *obs.Recorder // times Rebuild and counts rebuilds and pairs when non-nil
}

// clusterMax is the most atoms in a cluster; mask bit clusterMax·a+b is pair (a, b).
const clusterMax = 4

// site is a cluster-order atom: position, charge, LJ well depth and diameter.
type site struct{ x, y, z, q, eps, sig float64 }

// entry is one (i-cluster, j-cluster, image); the i-cluster is its run's.
type entry struct {
	j    int32   // j-cluster
	jo   int32   // offset of the j-cluster's first atom in the slab's force buffer
	mask uint16  // the listed atom pairs
	excl uint16  // the excluded atom pairs to correct
	img  [3]int8 // image of the i-cluster: its atoms are moved by img·L
}

// run is the entries of i-cluster c; they end at index end of the list.
type run struct{ c, end int32 }

// slabList is a slab's list and force buffer: a block per slab it touches.
type slabList struct {
	ent          []entry
	runs         []run
	buf          []vec.V
	nbuf, npairs int
}

// geometry is a cluster's cell, exclusion group and bounding sphere of
// radius r. With h = (cutoff+skin)/2, two clusters farther apart than their
// out = h+r summed hold no pair to list, closer than their in = h−r only such.
type geometry struct {
	ctr       vec.V
	out, in   float64
	cell, grp int32
}

// SetObs attaches a stage recorder (nil detaches); not during Rebuild.
func (v *VerletList) SetObs(r *obs.Recorder) {
	v.o = r
	v.cl.SetObs(r)
}

// NewVerletList returns a list set up by Init.
func NewVerletList(box vec.Box, cutoff, skin float64) *VerletList {
	v := &VerletList{}
	v.Init(box, cutoff, skin)
	return v
}

// Init sets the list up in place; storage and the recorder are kept.
func (v *VerletList) Init(box vec.Box, cutoff, skin float64) {
	v.Box, v.Cutoff, v.Skin = box, cutoff, skin
	v.cl.Init(box, cutoff+skin)
}

// Rebuild rebuilds every slab's list; the atom count may change.
func (v *VerletList) Rebuild(pos []vec.V, excl *topol.Exclusions) {
	defer v.o.Start(obs.StageNeighbor).Stop()
	v.cl.Rebuild(pos)
	v.build(pos, excl, 0, -1)
}

// RebuildRange is Rebuild for the owner of cell-mode slabs [s0, s1): it
// bins only idx (ascending; the owned layers and the one above) and fills
// only the owned slabs, which then equal a full Rebuild's.
func (v *VerletList) RebuildRange(pos []vec.V, excl *topol.Exclusions, idx []int32, s0, s1 int) {
	defer v.o.Start(obs.StageNeighbor).Stop()
	v.cl.RebuildSubset(pos, idx)
	v.build(pos, excl, s0, s1)
}

// build clusters the binned atoms and fills slabs [s0, s1) (s1 < 0: all).
func (v *VerletList) build(pos []vec.V, excl *topol.Exclusions, s0, s1 int) {
	v.ref = append(v.ref[:0], pos...) //tmevet:ignore noalloc -- grow-once: reused until the atom count grows
	v.cluster(pos, excl)
	if s1 < 0 {
		s1 = v.ns
	}
	v.s0, v.s1 = s0, s1
	v.sl, v.blk, v.part = grow(v.sl, v.ns), grow(v.blk, v.ns*v.ns), grow(v.part, v.ns)
	par.For(s1-s0, listJob{v: v, excl: excl}, listJob.fill)
	v.npairs = 0
	for s := s0; s < s1; s++ {
		v.sl[s].buf = grow(v.sl[s].buf, v.sl[s].nbuf)
		v.npairs += v.sl[s].npairs
	}
	v.o.Add(obs.CounterVerletRebuilds, 1)
	v.o.Add(obs.CounterVerletPairs, int64(v.npairs))
}

// cluster groups the binned atoms into clusters, slab-major, gives each
// atom its image — Box.Wrap's, which chose its cell, or in direct mode the
// one nearest its cluster's first atom — measures them, and sets up slabs.
func (v *VerletList) cluster(pos []vec.V, excl *topol.Exclusions) {
	n, direct := len(pos), v.cl.Direct()
	v.root, v.open, v.cid = grow(v.root, n), grow(v.open, n), grow(v.cid, n)
	v.cell, v.size = grow(v.cell, n), grow(v.size, n)
	for i := range v.root {
		v.root[i], v.open[i] = int32(i), -1
	}
	for _, p := range excl.Pairs() {
		if int(p.J) < n {
			a, b := find(v.root, p.I), find(v.root, p.J)
			v.root[max(a, b)] = min(a, b)
		}
	}
	v.atom, v.img, v.at, v.cstart = grow(v.atom, n), grow(v.img, n), grow(v.at, n+clusterMax), grow(v.cstart, n+1)
	nc := v.cl.NCells()
	ncell := nc[0] * nc[1] * nc[2]
	if direct { // one cell: the box
		ncell = 1
	}
	v.ccell = grow(v.ccell, ncell+1)
	var nclus, nat int32
	for c := range ncell {
		// A group opens a cluster where it first appears in the cell and
		// whenever that one is full; the cell's clusters are laid out
		// contiguously, atoms ascending.
		v.ccell[c] = nclus
		cell := v.cell[:n]
		if direct {
			for i := range cell {
				cell[i] = int32(i)
			}
		} else {
			cell = v.cl.CellAtoms(c, cell)
		}
		c0 := nclus
		for _, a := range cell {
			r := find(v.root, a)
			if k := v.open[r]; k < c0 || v.size[k] == clusterMax {
				v.open[r], v.size[nclus] = nclus, 0
				nclus++
			}
			v.cid[a] = v.open[r]
			v.size[v.cid[a]]++
		}
		for k := c0; k < nclus; k++ {
			v.cstart[k], nat, v.size[k] = nat, nat+v.size[k], 0
		}
		for _, a := range cell {
			k := v.cid[a]
			v.atom[v.cstart[k]+v.size[k]] = a
			v.size[k]++
		}
	}
	v.ccell[ncell], v.cstart[nclus] = nclus, nat
	v.atom, v.img, v.at, v.cstart = v.atom[:nat], v.img[:nat], v.at[:nat], v.cstart[:nclus+1]

	v.geo = grow(v.geo, int(nclus))
	half, cell := (v.Cutoff+v.Skin)/2, int32(0)
	for c := range nclus {
		for cell+1 < int32(ncell) && v.ccell[cell+1] <= c {
			cell++
		}
		var lo, hi, ref vec.V
		for k := v.cstart[c]; k < v.cstart[c+1]; k++ {
			for ax, l := range v.Box.L {
				p := pos[v.atom[k]][ax]
				m := math.Floor(p / l)
				if p-float64(l*m) >= l {
					m++
				}
				if direct && k > v.cstart[c] {
					m = math.Floor((p-ref[ax])/l + 0.5)
				}
				v.img[k][ax] = -l * m
				y := p + v.img[k][ax]
				if k == v.cstart[c] {
					ref[ax], lo[ax], hi[ax] = y, y, y
				}
				lo[ax], hi[ax] = min(lo[ax], y), max(hi[ax], y)
			}
		}
		g := geometry{ctr: lo.Add(hi).Scale(0.5), cell: cell, grp: find(v.root, v.atom[v.cstart[c]])}
		var rad float64
		for k := v.cstart[c]; k < v.cstart[c+1]; k++ {
			d := pos[v.atom[k]].Add(v.img[k]).Sub(g.ctr)
			rad = max(rad, math.Sqrt(float64(d[0]*d[0])+float64(d[1]*d[1])+float64(d[2]*d[2])))
		}
		g.out, g.in = (float64(half)+rad)*(1+1e-12), (float64(half)-rad)*(1-1e-12)
		v.geo[c] = g
	}
	v.gather(pos, nil, nil)

	v.ns = nc[2]
	if direct {
		v.ns = min(max(int(nclus+directBlock-1)/directBlock, 1), maxDirectSlabs)
	}
	v.cbase = grow(v.cbase, v.ns+1)
	for s := range v.ns + 1 {
		if direct {
			v.cbase[s] = int32(min(s*((int(nclus)+v.ns-1)/v.ns), int(nclus)))
		} else {
			v.cbase[s] = v.ccell[s*nc[0]*nc[1]]
		}
	}
}

// directBlock clusters make a direct-mode slab, at most maxDirectSlabs: fixed by the system.
const (
	directBlock    = 32
	maxDirectSlabs = 32
)

// find returns the root of atom i's exclusion group, halving the path.
func find(root []int32, i int32) int32 {
	for root[i] != i {
		root[i] = root[root[i]]
		i = root[i]
	}
	return i
}

// grow returns s resized to n, reallocating (contents lost) only past its
// capacity, with headroom for the fluctuating rank windows and buffers.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/8) //tmevet:ignore noalloc -- grow-once: reused until the atom, cluster or slab count grows
	}
	return s[:n]
}

// listJob is the argument of the parallel bodies, which take slab s0+k.
type listJob struct {
	v    *VerletList
	excl *topol.Exclusions // Rebuild
	f    []vec.V           // Compute
}

// fill builds slab s0+k's list: per i-cluster its entries against the
// clusters of its half stencil or, in direct mode, of every cluster from
// itself on in every image in reach. It fills a local copy, since adjacent
// slabs' headers share cache lines that appends would bounce.
func (j listJob) fill(k int) {
	v, s := j.v, j.v.s0+k
	loc, row, geo := v.sl[s], v.blk[s*v.ns:(s+1)*v.ns], v.geo
	sl := &loc
	sl.ent, sl.runs, sl.nbuf, sl.npairs = sl.ent[:0], sl.runs[:0], 0, 0
	for t := range row {
		row[t] = -1
	}
	v.block(sl, row, s)
	l, nc := v.Box.L, v.cl.NCells()
	il := vec.V{1 / l[0], 1 / l[1], 1 / l[2]}
	for i := v.cbase[s]; i < v.cbase[s+1]; i++ {
		gi := &geo[i]
		if v.cl.Direct() {
			for t := s; t < v.ns; t++ { // slab t owns the j-clusters
				for jc := max(i, v.cbase[t]); jc < v.cbase[t+1]; jc++ {
					gj := &geo[jc]
					r := gi.out + gj.out
					dx, dy, dz := gi.ctr[0]-gj.ctr[0], gi.ctr[1]-gj.ctr[1], gi.ctr[2]-gj.ctr[2]
					// Usually only the nearest image can be in reach.
					nx, ny, nz := -rint(float64(dx*il[0])), -rint(float64(dy*il[1])), -rint(float64(dz*il[2]))
					ex, ey, ez := dx+float64(nx*l[0]), dy+float64(ny*l[1]), dz+float64(nz*l[2])
					if math.Abs(ex) < l[0]-r && math.Abs(ey) < l[1]-r && math.Abs(ez) < l[2]-r {
						if d2 := float64(ex*ex) + float64(ey*ey) + float64(ez*ez); d2 <= r*r {
							sl.npairs += bits.OnesCount16(v.pair(sl, row, j.excl, int(i), int(jc), [3]int8{int8(nx), int8(ny), int8(nz)}, t, d2))
						}
						continue
					}
					var seen uint16 // a pair listed in two images counts once
					xlo, xhi := span(dx, r, l[0])
					ylo, yhi := span(dy, r, l[1])
					zlo, zhi := span(dz, r, l[2])
					for nz := zlo; nz <= zhi; nz++ {
						for ny := ylo; ny <= yhi; ny++ {
							for nx := xlo; nx <= xhi; nx++ {
								img := [3]int8{int8(nx), int8(ny), int8(nz)}
								px, py, pz := v.shifted(gi, img)
								if d2, ok := sphere(px, py, pz, gi.out, gj); ok {
									seen |= v.pair(sl, row, j.excl, int(i), int(jc), img, t, d2)
								}
							}
						}
					}
					sl.npairs += bits.OnesCount16(seen)
				}
			}
		} else {
			cx, cy, cz := int(gi.cell)%nc[0], int(gi.cell)/nc[0]%nc[1], int(gi.cell)/(nc[0]*nc[1])
			for dz := 0; dz <= 1; dz++ {
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						if dz == 0 && (dy < 0 || dy == 0 && dx < 0) {
							continue // the other half of the layer's stencil
						}
						ox, ix := celllist.WrapCell(cx+dx, nc[0])
						oy, iy := celllist.WrapCell(cy+dy, nc[1])
						oz, iz := celllist.WrapCell(cz+dz, nc[2])
						img := [3]int8{int8(ix), int8(iy), int8(iz)}
						other, j0 := ox+nc[0]*(oy+nc[1]*oz), i // the home cell from i on
						if dx != 0 || dy != 0 || dz != 0 {
							j0 = v.ccell[other]
						}
						px, py, pz := v.shifted(gi, img)
						for jc := j0; jc < v.ccell[other+1]; jc++ {
							if d2, ok := sphere(px, py, pz, gi.out, &geo[jc]); ok {
								sl.npairs += bits.OnesCount16(v.pair(sl, row, j.excl, int(i), int(jc), img, oz, d2))
							}
						}
					}
				}
			}
		}
		if n := len(sl.runs); len(sl.ent) > 0 && (n == 0 || int(sl.runs[n-1].end) < len(sl.ent)) {
			sl.runs = append(sl.runs, run{i, int32(len(sl.ent))}) //tmevet:ignore noalloc -- grow-once: runs keep their capacity across rebuilds
		}
	}
	v.sl[s] = loc
}

// rint rounds x to an integer for |x| < 2⁵¹ (see vec.MinImage1).
func rint(x float64) float64 { return (x + 0x1.8p52) - 0x1.8p52 }

// span returns images lo..hi holding every n with |d + n·l| ≤ r: the biased
// truncation floors for |x| < 2²⁰, or gives one more, never one less.
func span(d, r, l float64) (lo, hi int) {
	return 1<<20 - int((r+d)/l+0x1p20), int((r-d)/l+0x1p20) - 1<<20
}

// shifted returns gi's centre moved to image img.
func (v *VerletList) shifted(gi *geometry, img [3]int8) (x, y, z float64) {
	l := &v.Box.L
	return gi.ctr[0] + float64(float64(img[0])*l[0]), gi.ctr[1] + float64(float64(img[1])*l[1]), gi.ctr[2] + float64(float64(img[2])*l[2])
}

// sphere returns the squared distance from (x, y, z), the centre of a
// cluster of half-distance out, to gj's, and whether they are in reach.
// Scalar locals: vec.V temporaries would round-trip the stack.
func sphere(x, y, z, out float64, gj *geometry) (float64, bool) {
	dx, dy, dz := x-gj.ctr[0], y-gj.ctr[1], z-gj.ctr[2]
	d2, r := float64(dx*dx)+float64(dy*dy)+float64(dz*dz), out+gj.out
	return d2, d2 <= r*r
}

// pair appends, and returns the mask of, the entry of cluster i in image
// img against cluster j of slab t, centres d2 apart squared, if any of
// their pairs is within cutoff+skin and not excluded (only a < b within one
// cluster) or, with EwaldExcl, excluded and in its minimum image. Clusters
// of different groups closer than their in sum list all; otherwise a
// conditional move, not a branch, sets each pair's bit from its distance.
func (v *VerletList) pair(sl *slabList, row []int32, excl *topol.Exclusions, i, j int, img [3]int8, t int, d2 float64) uint16 {
	gi, gj, l := &v.geo[i], &v.geo[j], v.Box.L
	sx, sy, sz := float64(float64(img[0])*l[0]), float64(float64(img[1])*l[1]), float64(float64(img[2])*l[2])
	in, i0, j0 := gi.in+gj.in, int(v.cstart[i]), int(v.cstart[j])
	ni, nj := int(v.cstart[i+1])-i0, int(v.cstart[j+1])-j0
	slots := uint16(1<<nj-1) * uint16((1<<(clusterMax*ni)-1)/(1<<clusterMax-1)) // ni rows of nj pairs
	if i == j {
		slots &= 0b1000_1100_1110 // a < b: three pairs in row 0, two in 1, one in 2 (clusterMax 4)
	}
	mask, ex := slots, uint16(0)
	if gi.grp == gj.grp || !(in > 0 && d2 <= in*in) {
		rcs2, near := (v.Cutoff+v.Skin)*(v.Cutoff+v.Skin), uint16(0)
		si, sj := (*[clusterMax]site)(v.at[i0:i0+clusterMax]), (*[clusterMax]site)(v.at[j0:j0+clusterMax])
		for a := range ni {
			pa := &si[a&(clusterMax-1)]
			xa, ya, za := pa.x+sx, pa.y+sy, pa.z+sz
			for b := range nj {
				b &= clusterMax - 1 // a no-op that bounds the index
				pb := &sj[b]
				dx, dy, dz := xa-pb.x, ya-pb.y, za-pb.z
				bit := uint16(1) << (clusterMax*a + b)
				if float64(dx*dx)+float64(dy*dy)+float64(dz*dz) > rcs2 {
					bit = 0
				}
				near |= bit
			}
		}
		mask &= near
		for m := slots; excl != nil && gi.grp == gj.grp && m != 0; m &= m - 1 {
			ab := bits.TrailingZeros16(m)
			pa, pb := &si[ab/clusterMax&(clusterMax-1)], &sj[ab&(clusterMax-1)]
			if excl.Excluded(int(v.atom[i0+ab/clusterMax]), int(v.atom[j0+ab%clusterMax])) {
				mask &^= 1 << ab
				dx, dy, dz := pa.x+sx-pb.x, pa.y+sy-pb.y, pa.z+sz-pb.z
				if v.EwaldExcl && math.Abs(dx) <= l[0]/2 && math.Abs(dy) <= l[1]/2 && math.Abs(dz) <= l[2]/2 {
					ex |= 1 << ab
				}
			}
		}
		if mask|ex == 0 {
			return 0
		}
	}
	jo := v.block(sl, row, t) + int32(j0) - v.cstart[v.cbase[t]]
	sl.ent = append(sl.ent, entry{j: int32(j), jo: jo, mask: mask, excl: ex, img: img}) //tmevet:ignore noalloc -- grow-once: entries keep their capacity across rebuilds
	return mask
}

// block returns slab t's offset in sl's buffer, adding it on first use.
func (v *VerletList) block(sl *slabList, row []int32, t int) int32 {
	if row[t] < 0 {
		row[t] = int32(sl.nbuf)
		sl.nbuf += int(v.cstart[v.cbase[t+1]] - v.cstart[v.cbase[t]])
	}
	return row[t]
}

// gather refreshes the cluster-order positions, and charges and LJ if given.
//
//tme:noalloc
func (v *VerletList) gather(pos []vec.V, q []float64, lj *LJ) {
	for k, a := range v.atom {
		p, d, s := &pos[a], &v.img[k], &v.at[k]
		s.x, s.y, s.z = p[0]+d[0], p[1]+d[1], p[2]+d[2]
		if q != nil {
			s.q, s.eps, s.sig = q[a], 0, 0
		}
		if lj != nil {
			s.eps, s.sig = lj.Eps[a], lj.Sigma[a]
		}
	}
}

// NeedsRebuild reports whether the atom count changed or any atom moved
// more than skin/2 (at Skin 0, at all) since the last Rebuild, measured
// without a minimum image: the list's images assume continuous paths.
func (v *VerletList) NeedsRebuild(pos []vec.V) bool {
	if len(pos) != len(v.ref) || len(pos) == 0 {
		return true
	}
	lim2 := v.Skin * v.Skin / 4
	for i := range pos {
		p, r := &pos[i], &v.ref[i]
		dx, dy, dz := p[0]-r[0], p[1]-r[1], p[2]-r[2]
		if float64(dx*dx)+float64(dy*dy)+float64(dz*dz) > lim2 {
			return true
		}
	}
	return false
}

// NPairs returns the number of atom pairs listed (in any image).
func (v *VerletList) NPairs() int { return v.npairs }

// RefPositions returns the build positions (nil before a Rebuild) for
// checkpoints: Rebuild is pure, so re-running it there reproduces the list.
func (v *VerletList) RefPositions() []vec.V {
	if v == nil || len(v.ref) == 0 {
		return nil
	}
	return v.ref
}

// Compute evaluates the owned slabs' pairs within the cutoff, adding their
// forces and mutual reactions into f (nil for energies alone). Valid while
// NeedsRebuild is false; deterministic at any GOMAXPROCS; no allocation.
//
//tme:noalloc
func (v *VerletList) Compute(pos []vec.V, q []float64, lj *LJ, alpha float64, f []vec.V) Result {
	if !v.k.is(alpha, v.Cutoff) {
		v.k = kernelFor(alpha, v.Cutoff)
	}
	v.gather(pos, q, lj)
	j := listJob{v: v, f: f}
	par.For(v.s1-v.s0, j, listJob.eval)
	if f != nil {
		par.For(v.s1-v.s0, j, listJob.apply)
	}
	return FoldSlabs(v.Partials())
}

// Partials returns the owned slabs' energy partials of the last Compute.
func (v *VerletList) Partials() []SlabPartial { return v.part[v.s0:v.s1] }

// AppendOwed appends the nonzero forces the last Compute of a RebuildRange
// list owes the slab above its range, s1 mod ns: atom j, and the force its
// owner adds to f[j] after its own Compute (adding the zeros skipped would
// change no bit). A list owning every slab owes none.
func (v *VerletList) AppendOwed(idx []int32, fv []vec.V) ([]int32, []vec.V) {
	s, t := v.s1-1, v.s1%v.ns
	if o := v.blk[s*v.ns+t]; v.s1-v.s0 < v.ns && o >= 0 {
		for k, a := range v.atom[v.cstart[v.cbase[t]]:v.cstart[v.cbase[t+1]]] {
			if f := v.sl[s].buf[int(o)+k]; f != (vec.V{}) {
				idx, fv = append(idx, a), append(fv, f)
			}
		}
	}
	return idx, fv
}

// near is a pair within the cutoff: r_j − r_i, its square and ab = clusterMax·a + b.
type near struct {
	dx, dy, dz, r2 float64
	ab             uint
}

// eval is the pair loop. Per entry a geometry pass walks the mask's set
// bits in ascending order, moves each pair's i-atom to the entry's image
// and keeps, branch-free, those within the cutoff; a kernel pass composes
// each from kernel.go's pieces, then the entry's excluded pairs get their
// correction; the j-cluster's reactions are written once. Summed products
// are rounded (float64(x*y)) against fusion; tier1.sh holds the loop to
// that and to no call on the in-table path.
//
//tme:noalloc
func (j listJob) eval(k int) {
	v, s := j.v, j.v.s0+k
	sl, kn, at, cs := &v.sl[s], v.k, v.at, v.cstart
	buf, tab, own := sl.buf, v.k.tab, int(cs[v.cbase[s]])
	clear(buf)
	rc2 := v.Cutoff * v.Cutoff
	lx, ly, lz := v.Box.L[0], v.Box.L[1], v.Box.L[2]
	eCoul, eLJ, eExcl, pairs, nexcl := 0.0, 0.0, 0.0, 0, 0
	var in [clusterMax * clusterMax]near
	e0 := int32(0)
	for _, r := range sl.runs {
		i0, ni := int(cs[r.c]), int(cs[r.c+1]-cs[r.c])
		si := (*[clusterMax]site)(at[i0 : i0+clusterMax])
		var fxi, fyi, fzi [clusterMax]float64
		for _, e := range sl.ent[e0:r.end] {
			sx, sy, sz := float64(float64(e.img[0])*lx), float64(float64(e.img[1])*ly), float64(float64(e.img[2])*lz)
			j0, nj := int(cs[e.j]), int(cs[e.j+1]-cs[e.j])
			sj := (*[clusterMax]site)(at[j0 : j0+clusterMax])
			n := 0
			for m := e.mask; m != 0; m &= m - 1 {
				ab := bits.TrailingZeros16(m)
				pa, pb := &si[ab/clusterMax&(clusterMax-1)], &sj[ab&(clusterMax-1)]
				dx, dy, dz := pb.x-(pa.x+sx), pb.y-(pa.y+sy), pb.z-(pa.z+sz)
				r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
				p := &in[n&(len(in)-1)]
				p.dx, p.dy, p.dz, p.r2, p.ab = dx, dy, dz, r2, uint(ab)
				if !(r2 > rc2) { // a NaN is kept, to reach the energies
					n++
				}
			}
			pairs += n
			var fxj, fyj, fzj [clusterMax]float64
			for k := range in[:n] {
				p := &in[k]
				a, b := int(p.ab/clusterMax&(clusterMax-1)), int(p.ab&(clusterMax-1))
				pa, pb := &si[a], &sj[b]
				var eC, eL, fr float64
				if c, d := tab.Segment(p.r2); c != nil {
					eC, fr = coulomb(pa.q*pb.q, c, d)
				} else {
					eC, fr = kn.coulombOut(pa.q*pb.q, p.r2)
				}
				if ee := pa.eps * pb.eps; ee != 0 {
					var fl float64
					eL, fl = ljEval(ee, pa.sig+pb.sig, 1/p.r2)
					fr += fl
				}
				eCoul += eC
				eLJ += eL
				fx, fy, fz := float64(fr*p.dx), float64(fr*p.dy), float64(fr*p.dz)
				fxi[a] -= fx
				fyi[a] -= fy
				fzi[a] -= fz
				fxj[b] += fx
				fyj[b] += fy
				fzj[b] += fz
			}
			for m := e.excl; m != 0; m &= m - 1 {
				ab := bits.TrailingZeros16(m)
				a, b := ab/clusterMax&(clusterMax-1), ab&(clusterMax-1)
				pa, pb := &si[a], &sj[b]
				dx, dy, dz := pb.x-(pa.x+sx), pb.y-(pa.y+sy), pb.z-(pa.z+sz)
				r2, qq := float64(dx*dx)+float64(dy*dy)+float64(dz*dz), pa.q*pb.q
				var eC, fr float64
				if c, d := tab.Segment(r2); c != nil {
					eC, fr = coulomb(qq, c, d)
				} else {
					eC, fr = kn.coulombOut(qq, r2)
				}
				eC, fr = exclusion(qq, r2, eC, fr)
				eExcl += eC
				nexcl++
				fx, fy, fz := float64(fr*dx), float64(fr*dy), float64(fr*dz)
				fxi[a] -= fx
				fyi[a] -= fy
				fzi[a] -= fz
				fxj[b] += fx
				fyj[b] += fy
				fzj[b] += fz
			}
			for b := range nj {
				fb := &buf[int(e.jo)+b]
				fb[0], fb[1], fb[2] = fb[0]+fxj[b], fb[1]+fyj[b], fb[2]+fzj[b]
			}
		}
		for a := range ni {
			fb := &buf[i0-own+a]
			fb[0], fb[1], fb[2] = fb[0]+fxi[a], fb[1]+fyi[a], fb[2]+fzi[a]
		}
		e0 = r.end
	}
	v.part[s] = SlabPartial{ECoul: eCoul, ELJ: eLJ, EExcl: eExcl, Pairs: pairs, Excluded: nexcl}
}

// apply adds to slab m = s0+k's atoms its own block, then the other owned
// slabs' in ascending order.
//
//tme:noalloc
func (j listJob) apply(k int) {
	v, f, m := j.v, j.f, j.v.s0+k
	atoms := v.atom[v.cstart[v.cbase[m]]:v.cstart[v.cbase[m+1]]]
	for src := v.s0 - 1; src < v.s1; src++ {
		o, b := int32(0), v.sl[m].buf
		if src >= v.s0 {
			if o = v.blk[src*v.ns+m]; src == m || o < 0 {
				continue
			}
			b = v.sl[src].buf
		}
		for k, a := range atoms {
			fa, bk := &f[a], &b[int(o)+k]
			fa[0], fa[1], fa[2] = fa[0]+bk[0], fa[1]+bk[1], fa[2]+bk[2]
		}
	}
}
