package rank

import (
	"testing"

	"tme4a/internal/par/partest"
)

// TestStepZeroAlloc is the steady-state allocation gate: after the boot
// round and the warm-up steps (which grow the reusable packet/scratch
// arrays to their working set), a full rank step — integration, halo
// exchanges, short-range, the whole mesh pipeline, and the engine-side
// fold — must allocate nothing, at one, two or four workers.
func TestStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	for _, tf := range []testFF{
		{side: 6, rc: 0.23, mesh: true},
		{side: 6, rc: 0.23, mesh: false},
	} {
		mode := "cutoff"
		if tf.mesh {
			mode = "tme"
		}
		t.Run(mode, func(t *testing.T) {
			sys := buildSystem(tf)
			eng, err := New(Config{Ranks: 4}, sys, newForceField(tf, sys.Box), 0.001)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for _, procs := range []int{1, 2, 4} {
				avg := partest.AllocsPerRun(procs, 100, func() {
					if _, err := eng.Step(); err != nil {
						t.Fatal(err)
					}
				})
				if avg != 0 {
					t.Errorf("GOMAXPROCS=%d: steady-state Step allocates %.1f times per call, want 0", procs, avg)
				}
			}
		})
	}
}
