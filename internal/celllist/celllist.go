// Package celllist provides a linked-cell spatial decomposition for
// range-limited pair interactions under periodic boundary conditions. It
// mirrors the MDGRAPE-4A decomposition, which assigns rectangular cells to
// nodes whose pipelines enumerate half-shell cell pairs as ForEachPair
// does; the image shift of a cell pair is known from the stencil, so a
// candidate costs three subtractions and a compare.
//
// nonbond.VerletList builds its clusters from the cells' atoms (CellAtoms),
// so a cluster never crosses a cell. The z-layers are the ownership slabs
// of the rank-decomposed engine: a rank bins only its layer window
// (RebuildSubset), whose cells then hold exactly the full binning's atoms.
package celllist

import (
	"slices"

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
	nc     [3]int // cells per axis, at least 1
	head   []int32
	next   []int32 // head[c] is cell c's first atom, next[i] the one after i; −1 ends
	// wrapped holds box-wrapped copies of the build positions.
	wrapped []vec.V
	n       int
	direct  bool          // too few cells for the stencil: all pairs, O(N²)
	o       *obs.Recorder // counts rebuilds when non-nil
}

// SetObs attaches a stage recorder (nil detaches); not during Rebuild.
func (l *List) SetObs(r *obs.Recorder) { l.o = r }

// New returns a list set up by Init.
func New(box vec.Box, cutoff float64) *List {
	l := new(List)
	l.Init(box, cutoff)
	return l
}

// Init computes the cell decomposition for box and cutoff in place, binning
// nothing. Cells are at least cutoff wide, so every pair within cutoff lies
// in the 3×3×3 stencil; a box too small for three cells along every axis
// falls back to direct all-pairs enumeration. The recorder is kept.
func (l *List) Init(box vec.Box, cutoff float64) {
	l.Box, l.Cutoff = box, cutoff
	for j := 0; j < 3; j++ {
		l.nc[j] = int(box.L[j] / cutoff)
		if l.nc[j] < 1 {
			l.nc[j] = 1
		}
		// The division can round up to k although L < k·cutoff, making cells
		// narrower than the cutoff and dropping pairs at r ≈ r_c: clamp until
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

// Rebuild re-bins the positions, reusing all storage (the atom count may
// change between calls); after warmup it allocates nothing.
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
// onto the head of its cell's chain, so a cell's atoms appear in descending
// insertion order and a subset binned ascending (RebuildSubset) reproduces
// the full list's chains cell for cell.
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

// NCells returns the cell counts per axis (in direct mode, nothing is
// binned into them).
func (l *List) NCells() [3]int { return l.nc }

// CellAtoms writes the atoms binned in cell c, cx + nx·(cy + ny·cz), into
// dst, which must have room, and returns them, ascending (see bin).
func (l *List) CellAtoms(c int, dst []int32) []int32 {
	k := 0
	for i := l.head[c]; i >= 0; i = l.next[i] {
		dst[k] = i
		k++
	}
	slices.Reverse(dst[:k])
	return dst[:k]
}

// Direct reports whether the list fell back to all-pairs enumeration.
func (l *List) Direct() bool { return l.direct }

// The half stencil, z-major: inPlane is half of the z = 0 neighbours and
// upPlane the 3×3 block one layer up. With the home cell's i < j pairs and
// their negations they tile the 3×3×3 neighbourhood, so every pair within
// cutoff is enumerated exactly once.
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
// cutoff², in a fixed order. pos must be the slice passed to Rebuild; only
// direct mode reads it, imaging each component with vec.MinImage1.
func (l *List) ForEachPair(pos []vec.V, fn func(i, j int, d vec.V, r2 float64)) {
	rc2 := l.Cutoff * l.Cutoff
	if l.direct {
		lx, ly, lz := l.Box.L[0], l.Box.L[1], l.Box.L[2]
		ix, iy, iz := 1/lx, 1/ly, 1/lz
		for i := 0; i < l.n; i++ {
			for j := i + 1; j < l.n; j++ {
				dx := vec.MinImage1(pos[i][0]-pos[j][0], lx, ix)
				dy := vec.MinImage1(pos[i][1]-pos[j][1], ly, iy)
				dz := vec.MinImage1(pos[i][2]-pos[j][2], lz, iz)
				if r2 := dx*dx + dy*dy + dz*dz; r2 <= rc2 {
					fn(i, j, vec.V{dx, dy, dz}, r2)
				}
			}
		}
		return
	}
	nx, ny, nz := l.nc[0], l.nc[1], l.nc[2]
	w := l.wrapped
	for cz := 0; cz < nz; cz++ {
		for cy := 0; cy < ny; cy++ {
			for cx := 0; cx < nx; cx++ {
				home := cx + nx*(cy+ny*cz)
				// The home cell's pairs (never wrapped), then the half stencil.
				for i := l.head[home]; i >= 0; i = l.next[i] {
					l.pairsFrom(i, l.next[i], w[i][0], w[i][1], w[i][2], rc2, fn)
				}
				for dz, plane := range [2][][2]int{inPlane[:], upPlane[:]} {
					oz, iz := WrapCell(cz+dz, nz)
					for _, st := range plane {
						ox, ix := WrapCell(cx+st[0], nx)
						oy, iy := WrapCell(cy+st[1], ny)
						sx, sy, sz := float64(ix)*l.Box.L[0], float64(iy)*l.Box.L[1], float64(iz)*l.Box.L[2]
						for i := l.head[home]; i >= 0; i = l.next[i] {
							l.pairsFrom(i, l.head[ox+nx*(oy+ny*oz)], w[i][0]+sx, w[i][1]+sy, w[i][2]+sz, rc2, fn)
						}
					}
				}
			}
		}
	}
}

// pairsFrom reports atom i, at (px, py, pz), against the chain from atom j.
func (l *List) pairsFrom(i, j int32, px, py, pz, rc2 float64, fn func(i, j int, d vec.V, r2 float64)) {
	for ; j >= 0; j = l.next[j] {
		w := &l.wrapped[j]
		dx, dy, dz := px-w[0], py-w[1], pz-w[2]
		if r2 := dx*dx + dy*dy + dz*dz; r2 <= rc2 {
			fn(int(i), int(j), vec.V{dx, dy, dz}, r2)
		}
	}
}

// WrapCell maps a cell index one step out of [0, n) back inside, with the
// image, in box lengths, that moves the home cell next to it.
func WrapCell(c, n int) (int, int) {
	if c < 0 {
		return c + n, 1
	}
	if c >= n {
		return c - n, -1
	}
	return c, 0
}
