// Package celllist provides a linked-cell spatial decomposition for
// range-limited pair interactions under periodic boundary conditions.
//
// The same cell structure mirrors the MDGRAPE-4A spatial decomposition: the
// machine assigns rectangular cells of at most 64 atoms to nodes, and the
// nonbond pipelines enumerate half-shell cell pairs exactly as ForEachPair
// does here.
//
// Performance note: the periodic image shift of every cell pair is known
// from the stencil, so candidate pairs are tested with three subtractions
// and a compare — no per-pair minimum-image rounding.
//
// # Slab decomposition
//
// For parallel traversal the list partitions space into ownership slabs:
// one z-layer of cells per slab in cell mode, fixed contiguous atom blocks
// in direct mode. The half stencil is z-major — its cross-layer entries all
// point one layer up — so every pair enumerated from slab s involves only
// atoms owned by s and atoms owned by one "target" slab (s itself, the
// layer above, or a later atom block). ForEachPairInSlab reports that
// target, letting callers accumulate forces with exclusive slab ownership
// and defer the cross-slab half for a deterministic second pass:
// nonbond.VerletList stores the pairs bucketed by (slab, target) and
// evaluates them that way, and a rank of internal/rank bins only its layer
// window (RebuildSubset, subset.go) and fills only its own slabs.
package celllist

import (
	"tme4a/internal/obs"
	"tme4a/internal/vec"
)

// List is a linked-cell list over a periodic box. The zero List is not yet
// set up: Init (or New) fixes its box and cutoff, after which a Cutoff > 0
// marks it ready. Holders keep it by value and set it up in place on first
// use, so a steady-state step never reaches an allocating constructor.
type List struct {
	Box    vec.Box
	Cutoff float64
	// nc is the number of cells along each axis; at least 1.
	nc [3]int
	// head[c] is the first atom in cell c, next[i] the next atom after i,
	// −1 terminated.
	head []int32
	next []int32
	// wrapped holds box-wrapped copies of the build positions, used for
	// shift-based displacement computation.
	wrapped []vec.V
	n       int
	direct  bool // too few cells for the stencil; fall back to O(N²)
	// o, when non-nil, counts rebuilds. The cell list records no span of
	// its own: the Verlet list it backs attributes the rebuild time to the
	// neighbor stage.
	o *obs.Recorder
}

// SetObs attaches a stage recorder (nil detaches). Not safe to call
// concurrently with Rebuild.
func (l *List) SetObs(r *obs.Recorder) { l.o = r }

// New returns a list set up by Init.
func New(box vec.Box, cutoff float64) *List {
	l := new(List)
	l.Init(box, cutoff)
	return l
}

// Init computes the cell decomposition for box and cutoff in place without
// binning any atoms; Rebuild must be called before traversal. Cells are at
// least cutoff wide, so all pairs within cutoff are found inside the 3×3×3
// stencil. If the box is too small for a 3-cell decomposition along every
// axis the list falls back to direct all-pairs enumeration. The attached
// recorder is kept.
func (l *List) Init(box vec.Box, cutoff float64) {
	l.Box, l.Cutoff = box, cutoff
	for j := 0; j < 3; j++ {
		l.nc[j] = int(box.L[j] / cutoff)
		if l.nc[j] < 1 {
			l.nc[j] = 1
		}
		// The division can round up past an integer (L/cutoff returned as
		// exactly k although L < k·cutoff), which would make cells
		// fractionally narrower than the cutoff and silently drop pairs at
		// r ≈ r_c outside the 3×3×3 stencil. Clamp until the invariant
		// L/nc ≥ cutoff holds in floating point.
		for l.nc[j] > 1 && box.L[j]/float64(l.nc[j]) < cutoff {
			l.nc[j]--
		}
	}
	l.direct = l.nc[0] < 3 || l.nc[1] < 3 || l.nc[2] < 3
	if l.direct {
		return
	}
	nc := l.nc[0] * l.nc[1] * l.nc[2]
	if cap(l.head) < nc {
		l.head = make([]int32, nc) //tmevet:ignore noalloc -- grow-once: sized to the cell count when the list is set up
	}
	l.head = l.head[:nc]
}

// Build constructs a cell list for the positions (New + Rebuild).
func Build(box vec.Box, cutoff float64, pos []vec.V) *List {
	l := New(box, cutoff)
	l.Rebuild(pos)
	return l
}

// Rebuild re-bins the positions into the existing cell decomposition,
// reusing all internal storage (the atom count may change between calls).
// After warmup it allocates nothing.
func (l *List) Rebuild(pos []vec.V) {
	l.o.Add(obs.CounterCellRebuilds, 1)
	l.n = len(pos)
	if l.direct {
		return
	}
	l.clear()
	for i := range pos {
		l.bin(pos, int32(i))
	}
}

// clear sizes the chain storage for l.n atoms and empties every cell.
func (l *List) clear() {
	if cap(l.next) < l.n {
		l.next = make([]int32, l.n)    //tmevet:ignore noalloc -- grow-once: reused across rebuilds until the atom count grows
		l.wrapped = make([]vec.V, l.n) //tmevet:ignore noalloc -- grow-once: reused across rebuilds until the atom count grows
	}
	l.next = l.next[:l.n]
	l.wrapped = l.wrapped[:l.n]
	for i := range l.head {
		l.head[i] = -1
	}
}

// bin is the one binning body: it wraps atom i into the box and pushes it
// onto the head of its cell's chain. Chains grow head-first, so the atoms
// of a cell always appear in descending insertion order — which is why a
// subset binned in ascending index (RebuildSubset) reproduces the full
// list's chains cell for cell.
func (l *List) bin(pos []vec.V, i int32) {
	w := l.Box.Wrap(pos[i])
	l.wrapped[i] = w
	c := l.axisCell(w, 0) + l.nc[0]*(l.axisCell(w, 1)+l.nc[1]*l.axisCell(w, 2))
	l.next[i] = l.head[c]
	l.head[c] = i
}

// axisCell returns the cell coordinate of a wrapped position along axis j,
// clamped against rounding at the box faces.
//
//tme:noalloc
func (l *List) axisCell(w vec.V, j int) int {
	c := int(w[j] / l.Box.L[j] * float64(l.nc[j]))
	if c >= l.nc[j] {
		c = l.nc[j] - 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// NCells returns the cell counts per axis (1,1,1 in direct mode).
func (l *List) NCells() [3]int { return l.nc }

// Direct reports whether the list fell back to all-pairs enumeration.
func (l *List) Direct() bool { return l.direct }

// directBlock is the atom-block granularity of direct-mode slabs and
// maxDirectSlabs caps their number; both depend only on the atom count, so
// the slab structure (and hence any slab-ordered reduction) never depends
// on GOMAXPROCS.
const (
	directBlock    = 64
	maxDirectSlabs = 32
)

func directSlabs(n int) int {
	nb := (n + directBlock - 1) / directBlock
	if nb > maxDirectSlabs {
		nb = maxDirectSlabs
	}
	if nb < 1 {
		nb = 1
	}
	return nb
}

// Slabs returns the number of ownership slabs: the z-layer count in cell
// mode, a fixed atom-block count (≤ 32, depending only on the atom count)
// in direct mode.
func (l *List) Slabs() int {
	if l.direct {
		return directSlabs(l.n)
	}
	return l.nc[2]
}

// The half stencil is split z-major. inPlane is the half of the z = 0
// neighbours; together with i < j ordering inside the home cell it visits
// every in-layer pair exactly once. upPlane is the full 3×3 block one layer
// up. The union {inPlane, upPlane, home} with their negations tiles the
// 3×3×3 neighbourhood, so every pair within cutoff is enumerated exactly
// once, and every cross-layer pair is enumerated from the lower layer.
var inPlane = [4][2]int{
	{1, 0}, {-1, 1}, {0, 1}, {1, 1},
}

var upPlane = [9][2]int{
	{-1, -1}, {0, -1}, {1, -1},
	{-1, 0}, {0, 0}, {1, 0},
	{-1, 1}, {0, 1}, {1, 1},
}

// ForEachPair calls fn(i, j, d, r2) for every unordered pair (i, j) with
// minimum-image displacement d = r_i − r_j and squared distance r2 ≤
// cutoff². The pos slice must be the one passed to Build/Rebuild (it is
// only used in direct mode; cell mode uses the wrapped copies).
func (l *List) ForEachPair(pos []vec.V, fn func(i, j int, d vec.V, r2 float64)) {
	ns := l.Slabs()
	for s := 0; s < ns; s++ {
		l.ForEachPairInSlab(s, pos, func(i, j int, d vec.V, r2 float64, _ int) {
			fn(i, j, d, r2)
		})
	}
}

// ForEachPairInSlab enumerates the pairs whose first atom is owned by slab
// s, calling fn(i, j, d, r2, tgt) where tgt is the slab owning atom j.
// Atom i is always owned by s; tgt is either s (both atoms owned — the
// caller may update both force entries), the layer above in cell mode, or
// any later block in direct mode. Distinct slabs own disjoint atom sets,
// and the enumeration order within a slab is fixed, so concurrent
// traversal of different slabs with owner-only writes plus a deferred
// cross-slab pass is deterministic at any worker count.
func (l *List) ForEachPairInSlab(s int, pos []vec.V, fn func(i, j int, d vec.V, r2 float64, tgt int)) {
	rc2 := l.Cutoff * l.Cutoff
	if l.direct {
		l.forEachPairInBlock(s, pos, rc2, fn)
		return
	}
	nx, ny, nz := l.nc[0], l.nc[1], l.nc[2]
	cz := s
	w := l.wrapped
	// The z-wrap of the layer above is constant across the whole slab.
	ozUp, szUp := wrapCell(cz+1, nz, l.Box.L[2])
	tgtUp := ozUp
	for cy := 0; cy < ny; cy++ {
		for cx := 0; cx < nx; cx++ {
			home := cx + nx*(cy+ny*cz)
			// Pairs within the home cell: never wrap.
			for i := l.head[home]; i >= 0; i = l.next[i] {
				wi := w[i]
				for j := l.next[i]; j >= 0; j = l.next[j] {
					dx := wi[0] - w[j][0]
					dy := wi[1] - w[j][1]
					dz := wi[2] - w[j][2]
					r2 := dx*dx + dy*dy + dz*dz
					if r2 <= rc2 {
						fn(int(i), int(j), vec.V{dx, dy, dz}, r2, s)
					}
				}
			}
			// In-layer half stencil: the image shift is fixed per cell pair.
			for _, st := range inPlane {
				ox, sx := wrapCell(cx+st[0], nx, l.Box.L[0])
				oy, sy := wrapCell(cy+st[1], ny, l.Box.L[1])
				other := ox + nx*(oy+ny*cz)
				for i := l.head[home]; i >= 0; i = l.next[i] {
					// Precompute r_i + shift so the inner loop is three
					// subtractions and a compare.
					px := w[i][0] + sx
					py := w[i][1] + sy
					pz := w[i][2]
					for j := l.head[other]; j >= 0; j = l.next[j] {
						dx := px - w[j][0]
						dy := py - w[j][1]
						dz := pz - w[j][2]
						r2 := dx*dx + dy*dy + dz*dz
						if r2 <= rc2 {
							fn(int(i), int(j), vec.V{dx, dy, dz}, r2, s)
						}
					}
				}
			}
			// Full 3×3 stencil one layer up: atom j is owned by tgtUp.
			for _, st := range upPlane {
				ox, sx := wrapCell(cx+st[0], nx, l.Box.L[0])
				oy, sy := wrapCell(cy+st[1], ny, l.Box.L[1])
				other := ox + nx*(oy+ny*ozUp)
				for i := l.head[home]; i >= 0; i = l.next[i] {
					px := w[i][0] + sx
					py := w[i][1] + sy
					pz := w[i][2] + szUp
					for j := l.head[other]; j >= 0; j = l.next[j] {
						dx := px - w[j][0]
						dy := py - w[j][1]
						dz := pz - w[j][2]
						r2 := dx*dx + dy*dy + dz*dz
						if r2 <= rc2 {
							fn(int(i), int(j), vec.V{dx, dy, dz}, r2, tgtUp)
						}
					}
				}
			}
		}
	}
}

// forEachPairInBlock is the direct-mode branch of ForEachPairInSlab: atom
// block s against itself and every later block, on scalar locals with the
// per-component minimum image of vec.MinImage1 (see there for why, and for
// why no pair inside the cutoff can differ from Box.MinImage by a bit).
func (l *List) forEachPairInBlock(s int, pos []vec.V, rc2 float64, fn func(i, j int, d vec.V, r2 float64, tgt int)) {
	n := l.n
	nb := directSlabs(n)
	c := (n + nb - 1) / nb
	lo, hi := s*c, (s+1)*c
	if hi > n {
		hi = n
	}
	lx, ly, lz := l.Box.L[0], l.Box.L[1], l.Box.L[2]
	ix, iy, iz := 1/lx, 1/ly, 1/lz
	for i := lo; i < hi; i++ {
		xi, yi, zi := pos[i][0], pos[i][1], pos[i][2]
		// Walk atom j block by block so the owning slab is a loop variable,
		// not a division per pair.
		for tgt := s; tgt < nb; tgt++ {
			jlo, jhi := tgt*c, (tgt+1)*c
			if jlo <= i {
				jlo = i + 1
			}
			if jhi > n {
				jhi = n
			}
			for j := jlo; j < jhi; j++ {
				pj := &pos[j]
				dx := vec.MinImage1(xi-pj[0], lx, ix)
				dy := vec.MinImage1(yi-pj[1], ly, iy)
				dz := vec.MinImage1(zi-pj[2], lz, iz)
				if r2 := dx*dx + dy*dy + dz*dz; r2 <= rc2 {
					fn(i, j, vec.V{dx, dy, dz}, r2, tgt)
				}
			}
		}
	}
}

// wrapCell maps a possibly out-of-range cell index into the box and
// returns the position shift that must be ADDED to home-cell atom
// coordinates so that differences against atoms of the wrapped cell give
// the nearest-image displacement.
func wrapCell(c, n int, boxL float64) (int, float64) {
	if c < 0 {
		// The neighbour's atoms sit near the far edge; their nearest image
		// is one box length below, i.e. home coordinates shift up by +L.
		return c + n, +boxL
	}
	if c >= n {
		return c - n, -boxL
	}
	return c, 0
}
