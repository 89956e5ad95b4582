// Subset rebuild support for the rank-decomposed run mode (internal/rank).
//
// A rank owns a contiguous range of z-layers and receives, via position
// halos, exactly the atoms whose layer falls inside its window. It bins
// only those atoms, in ascending global index, through the body Rebuild
// bins every atom with (List.bin), so every cell of the window holds the
// full list's chain and ForEachPairInSlab enumerates the window's pairs in
// exactly the serial order.

package celllist

import "tme4a/internal/vec"

// Layer returns the z-slab (cell layer) that position r falls in — the z
// cell coordinate Rebuild bins it under. Panics in direct mode, where
// slabs are atom blocks rather than layers.
//
//tme:noalloc
func (l *List) Layer(r vec.V) int {
	if l.direct {
		panic("celllist: Layer undefined in direct mode")
	}
	return l.axisCell(l.Box.Wrap(r), 2)
}

// RebuildSubset re-bins only the atoms listed in idx (ascending global
// index) into the cell decomposition; every other cell chain is left
// empty. pos must be the full position array — idx entries index into it —
// so wrapped copies land at their global slots and pair callbacks report
// global atom indices. Cells all of whose atoms are listed end up with
// chains identical to a full Rebuild over the complete system.
// Panics in direct mode.
func (l *List) RebuildSubset(pos []vec.V, idx []int32) {
	if l.direct {
		panic("celllist: RebuildSubset unsupported in direct mode")
	}
	l.n = len(pos)
	l.clear()
	for _, i := range idx {
		l.bin(pos, i)
	}
}
