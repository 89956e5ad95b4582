package celllist

// Rebuild must reuse storage across atom-count changes and allocate nothing
// in steady state.

import (
	"math/rand"
	"runtime"
	"testing"

	"tme4a/internal/vec"
)

func pairSet(t *testing.T, fn func(emit func(i, j int))) map[[2]int]int {
	t.Helper()
	out := map[[2]int]int{}
	fn(func(i, j int) {
		if i > j {
			i, j = j, i
		}
		out[[2]int{i, j}]++
	})
	return out
}

func TestRebuildReusesAcrossAtomCountChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	box := vec.Cubic(5)
	l := New(box, 1.0)
	for _, n := range []int{200, 350, 120, 350} {
		pos := randomPositions(rng, n, box)
		l.Rebuild(pos)
		fresh := Build(box, 1.0, pos)
		got := pairSet(t, func(emit func(i, j int)) {
			l.ForEachPair(pos, func(i, j int, d vec.V, r2 float64) { emit(i, j) })
		})
		want := pairSet(t, func(emit func(i, j int)) {
			fresh.ForEachPair(pos, func(i, j int, d vec.V, r2 float64) { emit(i, j) })
		})
		if len(got) != len(want) {
			t.Fatalf("n=%d: reused list found %d pairs, fresh %d", n, len(got), len(want))
		}
		for k := range want {
			if got[k] != 1 {
				t.Fatalf("n=%d: pair %v missing from reused list", n, k)
			}
		}
	}
}

func TestRebuildSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(11))
	box := vec.Cubic(5)
	pos := randomPositions(rng, 400, box)
	l := New(box, 1.0)
	l.Rebuild(pos)
	allocs := testing.AllocsPerRun(10, func() {
		l.Rebuild(pos)
	})
	if allocs != 0 {
		t.Errorf("Rebuild allocates %.1f objects in steady state, want 0", allocs)
	}
}
