package rank

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tme4a/internal/core"
	"tme4a/internal/md"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// testFF describes one equivalence scenario: a water box with either the
// TME mesh term or plain cutoff electrostatics.
type testFF struct {
	side int
	rc   float64
	mesh bool
}

// buildSystem prepares an equilibrated water box; the same seed sequence
// always yields the same system, so reference and rank runs can each get
// a pristine, bitwise-identical copy.
func buildSystem(tf testFF) *md.System {
	box := water.CubicBoxFor(tf.side * tf.side * tf.side)
	sys := water.Build(tf.side, tf.side, tf.side, box, 23)
	water.Equilibrate(sys, 100, 0.001, 300, tf.rc, 24)
	sys.InitVelocities(300, rand.New(rand.NewSource(25)))
	return sys
}

// newForceField builds a fresh force field for the scenario. The mesh
// solver carries per-run scratch, so reference and rank runs need their
// own instance.
func newForceField(tf testFF, box vec.Box) *md.ForceField {
	alpha := spme.AlphaFromRTol(tf.rc, 1e-4)
	ff := &md.ForceField{Alpha: alpha, Rc: tf.rc}
	if tf.mesh {
		prm := core.Params{
			Alpha:  alpha,
			Rc:     tf.rc,
			Order:  4,
			N:      [3]int{32, 32, 32},
			Levels: 1,
			M:      2,
			Gc:     4,
		}
		ff.Mesh = core.New(prm, box)
	}
	return ff
}

// checkpoint is one observation of the trajectory: the position/velocity
// hash plus the full energy breakdown, all compared bitwise.
type checkpoint struct {
	hash uint64
	e    md.Energies
}

// serialTrajectory advances the reference integrator, recording a
// checkpoint every `every` steps.
func serialTrajectory(t *testing.T, tf testFF, steps, every int) []checkpoint {
	t.Helper()
	sys := buildSystem(tf)
	in := &md.Integrator{FF: newForceField(tf, sys.Box), Dt: 0.001}
	var cps []checkpoint
	for s := 1; s <= steps; s++ {
		e := in.Step(sys)
		if s%every == 0 {
			cps = append(cps, checkpoint{hash: md.StateHash(sys), e: e})
		}
	}
	return cps
}

// rankTrajectory advances the rank engine at rank count r, recording the
// same checkpoints.
func rankTrajectory(t *testing.T, tf testFF, r, steps, every int) []checkpoint {
	t.Helper()
	sys := buildSystem(tf)
	eng, err := New(Config{Ranks: r}, sys, newForceField(tf, sys.Box), 0.001)
	if err != nil {
		t.Fatalf("New(R=%d): %v", r, err)
	}
	defer eng.Close()
	var cps []checkpoint
	for s := 1; s <= steps; s++ {
		e, err := eng.Step()
		if err != nil {
			t.Fatalf("R=%d step %d: %v", r, s, err)
		}
		if s%every == 0 {
			cps = append(cps, checkpoint{hash: md.StateHash(sys), e: e})
		}
	}
	if r > 1 && eng.CommBytes() == 0 {
		t.Error("CommBytes() == 0 for a multi-rank run")
	}
	if r == 1 && eng.CommBytes() != 0 {
		t.Errorf("CommBytes() = %d for a single-rank run", eng.CommBytes())
	}
	return cps
}

// requireEqual compares two checkpoint sequences bitwise, energy field by
// energy field.
func requireEqual(t *testing.T, label string, ref, got []checkpoint, every int) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d checkpoints, want %d", label, len(got), len(ref))
	}
	for k := range ref {
		step := (k + 1) * every
		if got[k].hash != ref[k].hash {
			t.Fatalf("%s: state hash diverged at step %d: %016x != %016x", label, step, got[k].hash, ref[k].hash)
		}
		fields := []struct {
			name     string
			ref, got float64
		}{
			{"CoulShort", ref[k].e.CoulShort, got[k].e.CoulShort},
			{"CoulLong", ref[k].e.CoulLong, got[k].e.CoulLong},
			{"CoulExcl", ref[k].e.CoulExcl, got[k].e.CoulExcl},
			{"LJ", ref[k].e.LJ, got[k].e.LJ},
			{"Bonded", ref[k].e.Bonded, got[k].e.Bonded},
			{"Kinetic", ref[k].e.Kinetic, got[k].e.Kinetic},
		}
		for _, f := range fields {
			if math.Float64bits(f.ref) != math.Float64bits(f.got) {
				t.Fatalf("%s: %s diverged at step %d: %x != %x (Δ=%g)",
					label, f.name, step, math.Float64bits(f.got), math.Float64bits(f.ref), f.got-f.ref)
			}
		}
	}
}

// TestEquivalenceMatrix is the headline claim: a 200-step NVE water-box
// trajectory under the rank engine is bitwise identical to the serial
// integrator — state hash and every energy field — at every 20-step
// checkpoint, for rank counts {1, 2, 4, 8} crossed with GOMAXPROCS
// {1, 4}, in both TME-mesh and cutoff electrostatics; one rank moves no
// protocol bytes (CommBytes), more ranks always move some. -short trims
// to 40 steps and ranks {1, 2, 4}.
func TestEquivalenceMatrix(t *testing.T) {
	steps, every := 200, 20
	ranks := []int{1, 2, 4, 8}
	if testing.Short() {
		steps, every = 40, 20
		ranks = []int{1, 2, 4}
	}
	for _, tf := range []testFF{
		{side: 6, rc: 0.23, mesh: true},
		{side: 6, rc: 0.23, mesh: false},
	} {
		mode := "cutoff"
		if tf.mesh {
			mode = "tme"
		}
		ref := serialTrajectory(t, tf, steps, every)
		for _, r := range ranks {
			for _, procs := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/R%d/P%d", mode, r, procs), func(t *testing.T) {
					prev := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(prev)
					got := rankTrajectory(t, tf, r, steps, every)
					requireEqual(t, t.Name(), ref, got, every)
				})
			}
		}
	}
}
