package nonbond

// Serial-vs-parallel bitwise equivalence of the short-range engine. The
// slab decomposition fixes every accumulation order independently of the
// worker count (per-slab buffers + source-ordered second pass + slab-ordered
// partial reduction), so energies, forces and the pair list itself must be
// bitwise identical at any GOMAXPROCS, buffered or at skin 0.

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tme4a/internal/celllist"
	"tme4a/internal/topol"
	"tme4a/internal/vec"
)

var gomaxprocsLevels = []int{1, 2, 7, 16}

func withGOMAXPROCS(p int, fn func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// nameSeed derives a deterministic RNG seed from the test name, so a
// failure reproduces by re-running the same test.
func nameSeed(t *testing.T) int64 {
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	return int64(h.Sum64() & math.MaxInt64)
}

func testExclusions(n int) *topol.Exclusions {
	excl := topol.NewExclusions(n)
	for g := 0; g+2 < n; g += 3 {
		excl.AddGroup([]int{g, g + 1, g + 2})
	}
	return excl
}

func assertForcesBitwise(t *testing.T, name string, a, b []vec.V) {
	t.Helper()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: force %d differs: %v vs %v", name, i, a[i], b[i])
		}
	}
}

func assertResultBitwise(t *testing.T, name string, a, b Result) {
	t.Helper()
	if a != b {
		t.Fatalf("%s: results differ: %+v vs %+v", name, a, b)
	}
}

// TestComputeWithListBitwiseAcrossGOMAXPROCS: the one-shot skin-0 list
// behind ComputeWithList, in cell and direct mode.
func TestComputeWithListBitwiseAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(nameSeed(t)))
	for _, tc := range []struct {
		name string
		n    int
		box  vec.Box
	}{
		{"cells", 400, vec.Cubic(5)},
		{"direct", 180, vec.Cubic(2.2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pos, q, lj := randomSystem(rng, tc.n, tc.box)
			excl := testExclusions(tc.n)
			cl := celllist.Build(tc.box, 1.0, pos)
			var refF []vec.V
			var refR Result
			for li, p := range gomaxprocsLevels {
				f := make([]vec.V, tc.n)
				var r Result
				withGOMAXPROCS(p, func() {
					r = ComputeWithList(cl, tc.box, pos, q, lj, 2.5, excl, f)
				})
				if li == 0 {
					refF, refR = f, r
					continue
				}
				assertResultBitwise(t, tc.name, refR, r)
				assertForcesBitwise(t, tc.name, refF, f)
			}
		})
	}
}

func TestVerletBitwiseAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(nameSeed(t)))
	box := vec.Cubic(4.5)
	n := 450
	pos, q, lj := randomSystem(rng, n, box)
	excl := testExclusions(n)

	// The list itself must be identical at any worker count: same clusters,
	// same entries and runs in the same order, same force-buffer layout.
	var refList *VerletList
	for li, p := range gomaxprocsLevels {
		v := NewVerletList(box, 1.0, 0.2)
		withGOMAXPROCS(p, func() { v.Rebuild(pos, excl) })
		if li == 0 {
			refList = v
			continue
		}
		if v.NPairs() != refList.NPairs() {
			t.Fatalf("GOMAXPROCS=%d: %d pairs, want %d", p, v.NPairs(), refList.NPairs())
		}
		if !slices.Equal(v.atom, refList.atom) || !slices.Equal(v.cstart, refList.cstart) || !slices.Equal(v.blk, refList.blk) {
			t.Fatalf("GOMAXPROCS=%d: cluster layout differs", p)
		}
		for s := range refList.sl {
			a, b := &v.sl[s], &refList.sl[s]
			if !slices.Equal(a.ent, b.ent) || !slices.Equal(a.runs, b.runs) || a.nbuf != b.nbuf {
				t.Fatalf("GOMAXPROCS=%d: slab %d list differs", p, s)
			}
		}
	}

	// Compute over the buffered list after sub-skin moves, bitwise across
	// worker counts.
	moved := make([]vec.V, n)
	copy(moved, pos)
	for i := range moved {
		moved[i] = moved[i].Add(vec.V{rng.NormFloat64() * 0.02, rng.NormFloat64() * 0.02, rng.NormFloat64() * 0.02})
	}
	var refF []vec.V
	var refR Result
	for li, p := range gomaxprocsLevels {
		f := make([]vec.V, n)
		var r Result
		withGOMAXPROCS(p, func() {
			r = refList.Compute(moved, q, lj, 2.5, f)
		})
		if li == 0 {
			refF, refR = f, r
			continue
		}
		assertResultBitwise(t, "verlet", refR, r)
		assertForcesBitwise(t, "verlet", refF, f)
	}
}

// TestPropertyMatchesNaive drives the whole stack (cell list traversal,
// the skin-0 and the buffered Verlet list) against the O(N²) naive
// evaluator on randomized boxes, including near-cutoff box lengths (cells
// exactly 3 wide) and direct-mode small boxes. The RNG is seeded from the
// test name so any failure reproduces exactly.
func TestPropertyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(nameSeed(t)))
	const rc = 1.0
	const alpha = 2.5
	for trial := 0; trial < 12; trial++ {
		// Box lengths from just below 2·rc (deep direct mode) to 6·rc,
		// deliberately crossing the 3-cell threshold at 3·rc.
		L := rc * (2.0 + 4.0*rng.Float64())
		if trial%4 == 0 {
			// Near-cutoff edge: cells barely admit the 3×3×3 stencil.
			L = rc * (3.0 + 0.05*rng.Float64())
		}
		box := vec.Cubic(L)
		n := 60 + rng.Intn(200)
		pos, q, lj := randomSystem(rng, n, box)
		excl := testExclusions(n)

		fNaive := make([]vec.V, n)
		rNaive := naive(box, pos, q, lj, alpha, rc, excl, fNaive)

		fList := make([]vec.V, n)
		rList := compute(box, pos, q, lj, alpha, rc, excl, fList)
		compareToNaive(t, "skin-0 list", trial, L, n, rList, rNaive, fList, fNaive)

		v := NewVerletList(box, rc, 0.15)
		v.Rebuild(pos, excl)
		fV := make([]vec.V, n)
		rV := v.Compute(pos, q, lj, alpha, fV)
		compareToNaive(t, "VerletList", trial, L, n, rV, rNaive, fV, fNaive)
	}
}

func compareToNaive(t *testing.T, name string, trial int, L float64, n int, got, want Result, fGot, fWant []vec.V) {
	t.Helper()
	if got.Pairs != want.Pairs {
		t.Fatalf("%s trial %d (L=%.3f n=%d): %d pairs, naive %d", name, trial, L, n, got.Pairs, want.Pairs)
	}
	if math.Abs(got.ECoul-want.ECoul) > 1e-9*math.Max(1, math.Abs(want.ECoul)) {
		t.Errorf("%s trial %d (L=%.3f): ECoul %g vs %g", name, trial, L, got.ECoul, want.ECoul)
	}
	if math.Abs(got.ELJ-want.ELJ) > 1e-9*math.Max(1, math.Abs(want.ELJ)) {
		t.Errorf("%s trial %d (L=%.3f): ELJ %g vs %g", name, trial, L, got.ELJ, want.ELJ)
	}
	for i := range fGot {
		if fGot[i].Sub(fWant[i]).Norm() > 1e-8*math.Max(1, fWant[i].Norm()) {
			t.Fatalf("%s trial %d (L=%.3f): force %d: %v vs %v", name, trial, L, i, fGot[i], fWant[i])
		}
	}
}

// TestVerletAtomCountChange is the regression test for the stale-reference
// bug: NeedsRebuild must force a rebuild whenever the atom count changes
// (growing or shrinking), and Rebuild must resize every internal buffer so
// the next Compute matches the naive reference.
func TestVerletAtomCountChange(t *testing.T) {
	rng := rand.New(rand.NewSource(nameSeed(t)))
	box := vec.Cubic(4)
	v := NewVerletList(box, 1.0, 0.2)

	for _, n := range []int{150, 240, 90} {
		pos, q, lj := randomSystem(rng, n, box)
		excl := testExclusions(n)
		if !v.NeedsRebuild(pos) {
			t.Fatalf("n=%d: NeedsRebuild must report true after atom-count change", n)
		}
		v.Rebuild(pos, excl)
		if v.NeedsRebuild(pos) {
			t.Fatalf("n=%d: list stale immediately after Rebuild", n)
		}
		f := make([]vec.V, n)
		fN := make([]vec.V, n)
		r := v.Compute(pos, q, lj, 2.5, f)
		rN := naive(box, pos, q, lj, 2.5, 1.0, excl, fN)
		compareToNaive(t, "VerletList", n, box.L[0], n, r, rN, f, fN)
	}
}
