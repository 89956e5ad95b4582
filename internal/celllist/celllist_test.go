package celllist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tme4a/internal/vec"
)

func randomPositions(rng *rand.Rand, n int, box vec.Box) []vec.V {
	pos := make([]vec.V, n)
	for i := range pos {
		pos[i] = vec.V{rng.Float64() * box.L[0], rng.Float64() * box.L[1], rng.Float64() * box.L[2]}
	}
	return pos
}

func brutePairs(box vec.Box, pos []vec.V, rc float64) map[string]bool {
	out := map[string]bool{}
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			d := box.MinImage(pos[i].Sub(pos[j]))
			if d.Norm2() <= rc*rc {
				out[key(i, j)] = true
			}
		}
	}
	return out
}

func key(i, j int) string {
	if i > j {
		i, j = j, i
	}
	return fmt.Sprintf("%d-%d", i, j)
}

func TestPairsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		n   int
		box vec.Box
		rc  float64
	}{
		{100, vec.Cubic(5), 1.0},  // many cells
		{80, vec.Cubic(3.2), 1.0}, // exactly 3 cells per axis
		{50, vec.Cubic(2.0), 1.0}, // too few cells: direct fallback
		{60, vec.NewBox(6, 4, 3.5), 1.1},
	}
	for ci, c := range cases {
		pos := randomPositions(rng, c.n, c.box)
		want := brutePairs(c.box, pos, c.rc)
		got := map[string]bool{}
		var dup bool
		cl := Build(c.box, c.rc, pos)
		cl.ForEachPair(pos, func(i, j int, d vec.V, r2 float64) {
			k := key(i, j)
			if got[k] {
				dup = true
			}
			got[k] = true
		})
		if dup {
			t.Errorf("case %d: duplicate pairs emitted", ci)
		}
		if len(got) != len(want) {
			t.Errorf("case %d: %d pairs, want %d (direct=%v)", ci, len(got), len(want), cl.Direct())
		}
		for k := range want {
			if !got[k] {
				t.Errorf("case %d: missing pair %s", ci, k)
			}
		}
	}
}

func TestDisplacementConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box := vec.Cubic(6)
	pos := randomPositions(rng, 200, box)
	cl := Build(box, 1.2, pos)
	cl.ForEachPair(pos, func(i, j int, d vec.V, r2 float64) {
		// Shift-based displacements agree with MinImage to rounding.
		want := box.MinImage(pos[i].Sub(pos[j]))
		if d.Sub(want).Norm() > 1e-12 {
			t.Fatalf("pair (%d,%d): displacement %v, want %v", i, j, d, want)
		}
		if math.Abs(r2-d.Norm2()) > 1e-12 {
			t.Fatalf("pair (%d,%d): r2 mismatch", i, j)
		}
	})
}

func TestEmptyAndSingle(t *testing.T) {
	box := vec.Cubic(5)
	for _, n := range []int{0, 1} {
		pos := make([]vec.V, n)
		cl := Build(box, 1, pos)
		count := 0
		cl.ForEachPair(pos, func(i, j int, d vec.V, r2 float64) { count++ })
		if count != 0 {
			t.Errorf("n=%d: got %d pairs", n, count)
		}
	}
}

func TestWrappedPositionsOutsideBox(t *testing.T) {
	// Positions far outside the primary box must still be binned correctly.
	box := vec.Cubic(4)
	pos := []vec.V{{-3.9, 8.1, 0.5}, {0.2, 0.2, 0.4}}
	cl := Build(box, 1.0, pos)
	found := 0
	cl.ForEachPair(pos, func(i, j int, d vec.V, r2 float64) { found++ })
	if found != 1 {
		t.Errorf("found %d pairs, want 1", found)
	}
}

func TestStencilCoverage(t *testing.T) {
	// Every of the 26 neighbour offsets must be reachable exactly once by
	// the half stencil (in-plane half + full layer above) in either
	// direction.
	seen := map[[3]int]int{}
	for _, s := range inPlane {
		seen[[3]int{s[0], s[1], 0}]++
		seen[[3]int{-s[0], -s[1], 0}]++
	}
	for _, s := range upPlane {
		seen[[3]int{s[0], s[1], 1}]++
		seen[[3]int{-s[0], -s[1], -1}]++
	}
	if len(seen) != 26 {
		t.Fatalf("stencil covers %d offsets, want 26", len(seen))
	}
	var keys [][3]int
	for k, c := range seen {
		if c != 1 {
			t.Errorf("offset %v covered %d times", k, c)
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return fmt.Sprint(keys[a]) < fmt.Sprint(keys[b]) })
}

// TestCellWidthNeverBelowCutoff is the regression test for the nc rounding
// bug: with L = fl(5·cutoff) rounded down, the true ratio L/cutoff is just
// below 5 but the floating-point division returns exactly 5, so the old
// nc = int(L/cutoff) produced cells fractionally narrower than the cutoff
// and the 3×3×3 stencil could silently drop pairs at r ≈ r_c. Build must
// clamp nc so that L/nc ≥ cutoff holds in floating point.
func TestCellWidthNeverBelowCutoff(t *testing.T) {
	// Engineered rounding edge (see above): L < 5·cutoff exactly, yet
	// int(L/cutoff) == 5. Declared as variables so the division is IEEE
	// float64 (untyped constant arithmetic in Go is exact).
	cutoff := 0.90000000800000002
	L := 4.5000000399999998
	if int(L/cutoff) != 5 || L/5 >= cutoff {
		t.Fatalf("test box no longer hits the rounding edge: int(L/c)=%d, L/5-c=%g",
			int(L/cutoff), L/5-cutoff)
	}
	box := vec.NewBox(L, L, L)
	rng := rand.New(rand.NewSource(7))
	pos := randomPositions(rng, 200, box)
	cl := Build(box, cutoff, pos)
	nc := cl.NCells()
	for j := 0; j < 3; j++ {
		if w := box.L[j] / float64(nc[j]); w < cutoff {
			t.Errorf("axis %d: cell width %.17g below cutoff %.17g (nc=%d)", j, w, cutoff, nc[j])
		}
	}
	if nc[0] != 4 {
		t.Errorf("nc = %d, want clamp to 4", nc[0])
	}
	// With the invariant restored the stencil enumeration must agree with
	// brute force exactly.
	want := brutePairs(box, pos, cutoff)
	got := map[string]bool{}
	cl.ForEachPair(pos, func(i, j int, d vec.V, r2 float64) {
		got[key(i, j)] = true
	})
	if len(got) != len(want) {
		t.Errorf("pair count mismatch: got %d want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing pair %s", k)
		}
	}
}
