package celllist

import (
	"math/rand"
	"slices"
	"testing"

	"tme4a/internal/vec"
)

// TestRebuildSubsetMatchesRebuild: binning every atom through RebuildSubset
// gives the chains of Rebuild, and binning only the atoms of a window of
// layers — a rank's owned slabs plus the layer above, wrapping round the
// ring — leaves every cell of the window holding exactly the atoms of the
// full binning, in the same order, and every other cell empty. Positions
// reach a box length outside the box on either side.
func TestRebuildSubsetMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	box := vec.Box{L: vec.V{4.3, 5.1, 6.2}}
	n := 700
	pos := randomPositions(rng, n, box)
	for i := range pos {
		for k := 0; k < 3; k++ {
			pos[i][k] += float64(rng.Intn(3)-1) * box.L[k]
		}
	}
	full := Build(box, 1.0, pos)
	ns := full.NCells()[2]
	if full.Direct() || ns < 4 {
		t.Fatalf("test box must give at least four cell layers, got %d (direct=%v)", ns, full.Direct())
	}

	sub := New(box, 1.0)
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	sub.RebuildSubset(pos, all)
	for c := range full.head {
		if sub.head[c] != full.head[c] {
			t.Fatalf("RebuildSubset(all): cell %d starts at atom %d, Rebuild at %d", c, sub.head[c], full.head[c])
		}
	}
	for i := range full.next {
		if sub.next[i] != full.next[i] || sub.wrapped[i] != full.wrapped[i] {
			t.Fatalf("RebuildSubset(all): atom %d chains to %d at %v, Rebuild to %d at %v",
				i, sub.next[i], sub.wrapped[i], full.next[i], full.wrapped[i])
		}
	}

	for _, win := range [][2]int{{0, 2}, {1, ns - 1}, {ns - 2, ns}} { // owned slabs [s0, s1)
		s0, s1 := win[0], win[1]
		var idx []int32
		for i, r := range pos {
			if (full.Layer(r)-s0+ns)%ns <= s1-s0 {
				idx = append(idx, int32(i))
			}
		}
		if len(idx) == n {
			t.Fatalf("window [%d, %d) holds every atom; the subset exercises nothing", s0, s1)
		}
		sub.RebuildSubset(pos, idx)
		nc := full.NCells()
		per := nc[0] * nc[1]
		want, got := make([]int32, n), make([]int32, n)
		for c := 0; c < per*ns; c++ {
			w, g := full.CellAtoms(c, want), sub.CellAtoms(c, got)
			if (c/per-s0+ns)%ns > s1-s0 {
				w = nil
			}
			if len(g) != len(w) || !slices.Equal(g, w) {
				t.Fatalf("window [%d, %d) cell %d: atoms %v, full list %v", s0, s1, c, g, w)
			}
		}
	}
}

// TestSubsetEntryPointsPanicInDirectMode: a box without a cell
// decomposition has atom blocks, not layers, so the rank-mode entry points
// refuse it instead of answering something meaningless.
func TestSubsetEntryPointsPanicInDirectMode(t *testing.T) {
	l := New(vec.Cubic(2.0), 1.0)
	if !l.Direct() {
		t.Fatal("test box must be in direct mode")
	}
	pos := []vec.V{{0.1, 0.2, 0.3}}
	for name, fn := range map[string]func(){
		"Layer":         func() { l.Layer(pos[0]) },
		"RebuildSubset": func() { l.RebuildSubset(pos, []int32{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic in direct mode", name)
				}
			}()
			fn()
		}()
	}
}
