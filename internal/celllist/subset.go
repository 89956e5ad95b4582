// Subset rebuild for the rank-decomposed run mode (internal/rank): a rank
// receives exactly the atoms whose layer falls inside its window and bins
// them, in ascending index, through the body Rebuild bins every atom with,
// so every cell of the window holds the full list's chain.

package celllist

import "tme4a/internal/vec"

// Layer returns the z-layer of cells that position r is binned in. Panics
// in direct mode.
//
//tme:noalloc
func (l *List) Layer(r vec.V) int {
	if l.direct {
		panic("celllist: Layer undefined in direct mode")
	}
	return l.axisCell(l.Box.Wrap(r), 2)
}

// RebuildSubset re-bins only the atoms listed in idx (ascending) and
// leaves every other cell empty; pos is the full position array. A cell all
// of whose atoms are listed gets the chain of a full Rebuild. Panics in
// direct mode.
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
