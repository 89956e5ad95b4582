package pmesh

// Serial-vs-parallel equivalence of the particle–mesh operations: the
// plane-ownership scatter of AssignTo and the fixed-chunk energy reduction
// of Interpolate promise results bitwise independent of GOMAXPROCS.

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"tme4a/internal/grid"
	"tme4a/internal/par/partest"
	"tme4a/internal/vec"
)

func testSystem(rng *rand.Rand, n int, box vec.Box) ([]vec.V, []float64) {
	pos := make([]vec.V, n)
	q := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V{rng.Float64() * box.L[0], rng.Float64() * box.L[1], rng.Float64() * box.L[2]}
		q[i] = rng.NormFloat64()
	}
	return pos, q
}

// withGOMAXPROCS runs fn under the given worker count, restoring the old
// setting afterwards.
func withGOMAXPROCS(p int, fn func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	fn()
}

func TestAssignToBitwiseAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	box := vec.Cubic(2.5)
	m := NewMesher(6, [3]int{16, 12, 20}, box)
	pos, q := testSystem(rng, 400, box)

	results := map[int]*grid.G{}
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			g := grid.New(16, 12, 20)
			m.AssignTo(g, pos, q)
			results[procs] = g
		})
	}
	for i := range results[1].Data {
		if results[1].Data[i] != results[4].Data[i] {
			t.Fatalf("AssignTo differs at %d: GOMAXPROCS=1 %.17g vs GOMAXPROCS=4 %.17g",
				i, results[1].Data[i], results[4].Data[i])
		}
	}
}

func TestInterpolateBitwiseAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	box := vec.Cubic(2.5)
	m := NewMesher(6, [3]int{16, 16, 16}, box)
	// More atoms than one energy chunk, so the reduction really splits.
	pos, q := testSystem(rng, 3*energyChunk+17, box)
	phi := grid.New(16, 16, 16)
	for i := range phi.Data {
		phi.Data[i] = rng.NormFloat64()
	}

	type result struct {
		e float64
		f []vec.V
	}
	results := map[int]result{}
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			f := make([]vec.V, len(pos))
			e := m.Interpolate(phi, pos, q, f)
			results[procs] = result{e, f}
		})
	}
	if results[1].e != results[4].e {
		t.Fatalf("energy differs: GOMAXPROCS=1 %.17g vs GOMAXPROCS=4 %.17g",
			results[1].e, results[4].e)
	}
	for i := range results[1].f {
		if results[1].f[i] != results[4].f[i] {
			t.Fatalf("force %d differs: %v vs %v", i, results[1].f[i], results[4].f[i])
		}
	}
}

// TestAssignToMatchesSerialReference pins the scatter to the plain serial
// loop: plane ownership must not change any mesh point's accumulation
// order, so the match is exact.
func TestAssignToMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	box := vec.Cubic(3)
	n := [3]int{12, 16, 8}
	m := NewMesher(4, n, box)
	pos, q := testSystem(rng, 300, box)

	var got *grid.G
	withGOMAXPROCS(4, func() {
		got = grid.New(n[0], n[1], n[2])
		m.AssignTo(got, pos, q)
	})
	// Serial reference: one-plane slab covering the whole grid.
	want := grid.New(n[0], n[1], n[2])
	withGOMAXPROCS(1, func() { m.AssignTo(want, pos, q) })
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("scatter differs from serial at %d", i)
		}
	}
	// Charge conservation as a sanity anchor.
	var qs, gs float64
	for _, v := range q {
		qs += v
	}
	gs = gridSum(got)
	if d := qs - gs; d > 1e-10 || d < -1e-10 {
		t.Fatalf("total charge %g vs grid sum %g", qs, gs)
	}
}

func TestNewMesherRejectsOrderAbove16(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for order 18")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "<= 16") {
			t.Fatalf("panic message %q does not state the order cap", r)
		}
	}()
	// Order 18 is even and smaller than the grid, so it passed the old
	// validation and only blew up later with an opaque slice-bounds panic
	// in the fixed [16]float64 weight scratch.
	NewMesher(18, [3]int{32, 32, 32}, vec.Cubic(1))
}

// TestMeshSteadyStateAllocs: once the scratch pools are warm, charge
// assignment and back interpolation allocate nothing at one, two or four
// workers.
func TestMeshSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(14))
	box := vec.Cubic(2.5)
	m := NewMesher(6, [3]int{16, 16, 16}, box)
	pos, q := testSystem(rng, 648, box)
	g := grid.New(16, 16, 16)
	f := make([]vec.V, len(pos))
	for _, procs := range []int{1, 2, 4} {
		allocs := partest.AllocsPerRun(procs, 50, func() {
			m.AssignTo(g, pos, q)
			m.Interpolate(g, pos, q, f)
		})
		if allocs != 0 {
			t.Errorf("GOMAXPROCS=%d: AssignTo+Interpolate allocates %.1f objects per run, want 0", procs, allocs)
		}
	}
}
