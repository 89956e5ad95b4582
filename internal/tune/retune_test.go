package tune_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tme4a/internal/ckpt"
	"tme4a/internal/md"
	"tme4a/internal/tune"
	"tme4a/internal/water"
)

// stepRecord is everything a trajectory step exposes: the FNV-1a hash of
// the full dynamic state plus every energy field.
type stepRecord struct {
	Hash uint64
	E    md.Energies
}

// TestRetuneBitwise proves the online-retune safety property: switching
// plans mid-run at a checkpoint boundary produces a trajectory bitwise
// identical — StateHash and every energy field — to a fresh process that
// restores the same checkpoint and starts under the new plan. Both paths
// go through tune.Switch → PlainState, which strips the old plan's
// neighbor-list build positions, so the new plan bootstraps identically from
// plain (positions, velocities, step) state either way. The property must
// hold at any parallelism, so the whole scenario runs at GOMAXPROCS 1
// and 4 and the traces must also agree across the two.
func TestRetuneBitwise(t *testing.T) {
	const (
		side     = 4
		dt       = 0.001
		preSteps = 4
		steps    = 5
	)
	box := water.CubicBoxFor(side * side * side)
	build := func() *md.System {
		sys := water.Build(side, side, side, box, 11)
		sys.InitVelocities(300, rand.New(rand.NewSource(11)))
		return sys
	}
	probe := build()

	// Two genuinely different plans from the tuner's own enumeration:
	// the cheapest SPME and the cheapest TME candidate.
	cands, err := tune.Enumerate(tune.Request{Box: box, Atoms: probe.N(), ErrBudget: 5e-3})
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	var planA, planB tune.Plan
	foundA, foundB := false, false
	for _, c := range cands {
		if !foundA && c.Method == "spme" {
			planA, foundA = c.Plan, true
		}
		if !foundB && c.Method == "tme" {
			planB, foundB = c.Plan, true
		}
	}
	if !foundA || !foundB {
		t.Fatalf("enumeration lacks spme/tme candidates (%d total)", len(cands))
	}

	traces := map[int][]stepRecord{}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs-%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

			// Run preSteps under plan A, checkpoint at the boundary.
			sys := build()
			integA, err := planA.NewIntegrator(box, dt)
			if err != nil {
				t.Fatalf("plan A integrator: %v", err)
			}
			for s := 0; s < preSteps; s++ {
				integA.Step(sys)
			}
			snap := integA.CaptureResume(sys, map[string]int64{"side": side})
			store, err := ckpt.Open("ck", 3, 0, ckpt.NewMemFS())
			if err != nil {
				t.Fatalf("ckpt.Open: %v", err)
			}
			if err := store.Save(snap); err != nil {
				t.Fatalf("ckpt.Save: %v", err)
			}

			// Mid-run retune: switch the live system to plan B.
			integB, err := tune.Switch(sys, snap, planB, dt)
			if err != nil {
				t.Fatalf("Switch: %v", err)
			}
			if got := integB.CaptureResume(sys, nil).Step; got != preSteps {
				t.Fatalf("switched integrator starts at step %d, want %d", got, preSteps)
			}
			midRun := trace(integB, sys, steps)

			// Fresh process: rebuild the topology, load the checkpoint,
			// start under plan B.
			sys2 := build()
			cp, err := store.LoadLatest()
			if err != nil {
				t.Fatalf("LoadLatest: %v", err)
			}
			integB2, err := tune.Switch(sys2, cp.Snap, planB, dt)
			if err != nil {
				t.Fatalf("Switch (fresh): %v", err)
			}
			fresh := trace(integB2, sys2, steps)

			for s := range midRun {
				if midRun[s] != fresh[s] {
					t.Fatalf("step %d diverged:\n  mid-run retune: %+v\n  fresh restart:  %+v",
						preSteps+s+1, midRun[s], fresh[s])
				}
			}
			traces[procs] = midRun
		})
	}

	// The retuned trajectory is also invariant across parallelism.
	if len(traces[1]) == len(traces[4]) && len(traces[1]) > 0 {
		for s := range traces[1] {
			if traces[1][s] != traces[4][s] {
				t.Fatalf("step %d differs between GOMAXPROCS 1 and 4: %+v vs %+v",
					preSteps+s+1, traces[1][s], traces[4][s])
			}
		}
	}
}

func trace(integ *md.Integrator, sys *md.System, steps int) []stepRecord {
	out := make([]stepRecord, steps)
	for s := 0; s < steps; s++ {
		e := integ.Step(sys)
		out[s] = stepRecord{Hash: md.StateHash(sys), E: e}
	}
	return out
}
