package nonbond

// Steady-state allocation gates for the short-range engine. Once its
// storage has grown, rebuilding and evaluating a pair list — buffered, or
// at skin 0, where a step does both — must not allocate at all: the inner
// loop runs every MD step and any per-step garbage would dominate GC
// pressure at scale.

import (
	"math/rand"
	"testing"

	"tme4a/internal/par/partest"
	"tme4a/internal/vec"
)

func TestSkin0ListSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}

	rng := rand.New(rand.NewSource(nameSeed(t)))
	for _, tc := range []struct {
		name string
		box  vec.Box
	}{
		{"cells", vec.Cubic(5)},
		{"direct", vec.Cubic(2.2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := 300
			pos, q, lj := randomSystem(rng, n, tc.box)
			excl := testExclusions(n)
			v := NewVerletList(tc.box, 1.0, 0)
			f := make([]vec.V, n)
			for _, procs := range []int{1, 2, 4} {
				allocs := partest.AllocsPerRun(procs, 50, func() {
					v.Rebuild(pos, excl)
					v.Compute(pos, q, lj, 2.5, f)
				})
				if allocs != 0 {
					t.Fatalf("GOMAXPROCS=%d: skin-0 Rebuild+Compute allocates %.1f per run, want 0", procs, allocs)
				}
			}
		})
	}
}

func TestVerletComputeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}

	rng := rand.New(rand.NewSource(nameSeed(t)))
	box := vec.Cubic(4)
	n := 300
	pos, q, lj := randomSystem(rng, n, box)
	excl := testExclusions(n)

	v := NewVerletList(box, 1.0, 0.2)
	v.Rebuild(pos, excl)
	f := make([]vec.V, n)
	for _, procs := range []int{1, 2, 4} {
		allocs := partest.AllocsPerRun(procs, 50, func() {
			v.Compute(pos, q, lj, 2.5, f)
		})
		if allocs != 0 {
			t.Fatalf("GOMAXPROCS=%d: VerletList.Compute allocates %.1f per run, want 0", procs, allocs)
		}

		// Rebuild at the same atom count must also be allocation-free once
		// the storage has grown to capacity.
		allocs = partest.AllocsPerRun(procs, 50, func() {
			v.Rebuild(pos, excl)
		})
		if allocs != 0 {
			t.Fatalf("GOMAXPROCS=%d: VerletList.Rebuild allocates %.1f per run, want 0", procs, allocs)
		}
	}
}
