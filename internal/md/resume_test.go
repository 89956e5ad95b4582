package md_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tme4a/internal/bonded"
	"tme4a/internal/md"
	"tme4a/internal/obs"
	"tme4a/internal/protein"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// TestSnapshotPropertyRoundTrip is a property-based check over randomly
// populated snapshots: for systems of varying size whose state is drawn
// from a generator seeded by the subtest name, encode→decode must
// reproduce the snapshot exactly, restoring must reproduce the system
// state exactly, and re-encoding the decoded snapshot must reproduce the
// original bytes — the byte-determinism contract the checkpoint CRC and
// bitwise resume both lean on.
func TestSnapshotPropertyRoundTrip(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", "meta-heavy", "resume-state"} {
		t.Run(name, func(t *testing.T) {
			h := fnv.New64a()
			h.Write([]byte(name))
			rng := rand.New(rand.NewSource(int64(h.Sum64())))

			side := 2 + rng.Intn(2)
			n := side * side * side
			sys := water.Build(side, side, side, water.CubicBoxFor(n), rng.Int63n(1000))
			sys.InitVelocities(250+50*rng.Float64(), rng)

			meta := map[string]int64{"side": int64(side)}
			for i := 0; i < rng.Intn(12); i++ {
				meta[string(rune('a'+i))] = rng.Int63()
			}
			snap := sys.TakeSnapshot(meta)
			if name == "resume-state" {
				snap.Step = rng.Int63n(1 << 40)
				snap.VerletRef = randVecs(rng, sys.N())
			}

			first := encodeSnap(t, snap)
			got, err := decodeSnap(first)
			if err != nil {
				t.Fatal(err)
			}

			// Decoded state is exact.
			other := water.Build(side, side, side, sys.Box, 999)
			if err := other.Restore(got); err != nil {
				t.Fatal(err)
			}
			for i := range sys.Pos {
				if other.Pos[i] != sys.Pos[i] || other.Vel[i] != sys.Vel[i] {
					t.Fatalf("restored state differs at atom %d", i)
				}
			}
			if got.Step != snap.Step || len(got.VerletRef) != len(snap.VerletRef) {
				t.Fatal("resume state lost in round trip")
			}
			for i := range snap.VerletRef {
				if got.VerletRef[i] != snap.VerletRef[i] {
					t.Fatalf("verlet reference differs at atom %d", i)
				}
			}

			// Re-encoding the decoded snapshot is byte-identical.
			if second := encodeSnap(t, got); !bytes.Equal(first, second) {
				t.Fatalf("re-encode differs: %d vs %d bytes", len(first), len(second))
			}
		})
	}
}

func randVecs(rng *rand.Rand, n int) []vec.V {
	vs := make([]vec.V, n)
	for i := range vs {
		vs[i] = vec.V{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	return vs
}

// TestRestoreRejectsInvalidState: the regression suite for the latent
// Restore hole — before Validate was wired in, a NaN position or a
// degenerate box restored silently and detonated steps later.
func TestRestoreRejectsInvalidState(t *testing.T) {
	base := func() (*md.System, *md.Snapshot) {
		sys := water.Build(2, 2, 2, water.CubicBoxFor(8), 3)
		sys.InitVelocities(300, rand.New(rand.NewSource(5)))
		return sys, sys.TakeSnapshot(nil)
	}
	cases := []struct {
		name   string
		mutate func(*md.Snapshot)
	}{
		{"nan position", func(s *md.Snapshot) { s.Pos[1][2] = math.NaN() }},
		{"inf velocity", func(s *md.Snapshot) { s.Vel[0][0] = math.Inf(1) }},
		{"zero box edge", func(s *md.Snapshot) { s.Box.L[1] = 0 }},
		{"negative box edge", func(s *md.Snapshot) { s.Box.L[2] = -1.2 }},
		{"nan box edge", func(s *md.Snapshot) { s.Box.L[0] = math.NaN() }},
		{"velocity count mismatch", func(s *md.Snapshot) { s.Vel = s.Vel[:len(s.Vel)-1] }},
		{"negative step", func(s *md.Snapshot) { s.Step = -1 }},
		{"nan verlet reference", func(s *md.Snapshot) { s.VerletRef = make([]vec.V, len(s.Pos)); s.VerletRef[0][0] = math.NaN() }},
		{"verlet reference count mismatch", func(s *md.Snapshot) { s.VerletRef = make([]vec.V, len(s.Pos)-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, snap := base()
			tc.mutate(snap)
			if err := sys.Restore(snap); err == nil {
				t.Fatal("Restore accepted invalid state")
			}
			// And the same state must be refused when it arrives via the
			// serialized path.
			got, err := decodeSnap(encodeSnap(t, snap))
			if err != nil {
				return // decoder itself refused: also acceptable
			}
			if err := sys.Restore(got); err == nil {
				t.Fatal("Restore accepted invalid state after decode")
			}
		})
	}
}

// TestResumeIsBitwise is the integrator-level resume contract: capturing
// mid-run with CaptureResume and continuing in a fresh process-alike
// (new System from the same builder, new Integrator, RestoreResume) must
// reproduce the uninterrupted trajectory bit for bit. A snapshot carries
// no forces, so the first resumed step recomputes them, and each row checks
// that recomputation for one term or list state: plain cutoff, the mesh
// under a skin-0 list and under a buffered list, bonded terms on a small
// protein system, and a Berendsen thermostat. The protein box is wide
// enough for the list's cell mode, where cluster order follows the build
// positions; it is captured on a step that rebuilt the buffered list and on
// one that did not. Only the buffered list's build positions travel in the
// snapshot: a skin-0 list is rebuilt by the first step after the resume,
// as by every step. Every row runs at GOMAXPROCS 1 and 4, since the engine
// promises the same bits under serial and parallel scheduling.
func TestResumeIsBitwise(t *testing.T) {
	type cfg struct {
		name    string
		skin    float64
		mesh    bool
		protein bool // a small protein.Build system with its bonded terms
		nvt     bool // a Berendsen thermostat
		breakAt int
		rebuilt bool // skin > 0: whether step breakAt rebuilds the list
	}
	for _, c := range []cfg{
		{name: "plain", breakAt: 23},
		{name: "skin0+mesh", mesh: true, breakAt: 23},
		{name: "verlet+mesh", skin: 0.15, mesh: true, breakAt: 23},
		{name: "protein+bonded", skin: 0.12, mesh: true, protein: true, breakAt: 23},
		{name: "protein+bonded-rebuilt-at-break", skin: 0.12, mesh: true, protein: true, breakAt: 25, rebuilt: true},
		{name: "berendsen", skin: 0.15, mesh: true, nvt: true, breakAt: 23},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, procs := range []int{1, 4} {
				t.Run(fmt.Sprintf("gomaxprocs-%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					const (
						side     = 3
						seed     = 17
						rc       = 0.55
						dt       = 0.0005
						total    = 50
						tempInit = 280.0
					)
					breakAt := c.breakAt
					build := func() (*md.System, *bonded.FF) {
						if c.protein {
							ps := relaxedProtein(rc, seed)
							ps.InitVelocities(tempInit, rand.New(rand.NewSource(seed)))
							return ps.System, ps.Bonded
						}
						sys := water.Build(side, side, side, water.CubicBoxFor(side*side*side), seed)
						sys.InitVelocities(tempInit, rand.New(rand.NewSource(seed)))
						return sys, nil
					}
					mkInteg := func(sysBox vec.Box, bff *bonded.FF) *md.Integrator {
						ff := &md.ForceField{Rc: rc, Skin: c.skin, Bonded: bff}
						if c.mesh {
							alpha := spme.AlphaFromRTol(rc, 1e-4)
							ff.Alpha = alpha
							ff.Mesh = spme.New(spme.Params{Alpha: alpha, Rc: rc, Order: 6, N: [3]int{16, 16, 16}}, sysBox)
						}
						in := &md.Integrator{FF: ff, Dt: dt}
						if c.nvt {
							in.Thermostat = &md.Thermostat{T: 300, Tau: 0.01}
						}
						return in
					}

					// Uninterrupted reference.
					ref, refFF := build()
					refInteg := mkInteg(ref.Box, refFF)
					var refE md.Energies
					for s := 0; s < total; s++ {
						refE = refInteg.Step(ref)
					}

					// Interrupted run: capture at breakAt, noting whether that step
					// rebuilt the pair list…
					a, aFF := build()
					ai := mkInteg(a.Box, aFF)
					rec := obs.New()
					ai.SetObs(rec)
					var rebuilt bool
					for s := 0; s < breakAt; s++ {
						before := rec.CounterValue(obs.CounterVerletRebuilds)
						ai.Step(a)
						rebuilt = rec.CounterValue(obs.CounterVerletRebuilds) > before
					}
					if c.skin > 0 && rebuilt != c.rebuilt {
						t.Fatalf("step %d rebuilt the pair list: %v, want %v", breakAt, rebuilt, c.rebuilt)
					}
					snap := ai.CaptureResume(a, map[string]int64{"side": side, "seed": seed})
					if snap.Step != int64(breakAt) {
						t.Fatalf("captured step %d, want %d", snap.Step, breakAt)
					}
					if got, want := len(snap.VerletRef) > 0, c.skin > 0; got != want {
						t.Fatalf("snapshot carries a Verlet reference: %v, want %v", got, want)
					}

					// …serialize through the wire format, as a real restart would…
					wire, err := decodeSnap(encodeSnap(t, snap))
					if err != nil {
						t.Fatal(err)
					}

					// …and continue in fresh objects.
					b, bFF := build()
					bi := mkInteg(b.Box, bFF)
					if err := bi.RestoreResume(b, wire); err != nil {
						t.Fatal(err)
					}
					if bi.StepCount() != breakAt {
						t.Fatalf("resumed step count %d, want %d", bi.StepCount(), breakAt)
					}
					var bE md.Energies
					for s := breakAt; s < total; s++ {
						bE = bi.Step(b)
					}

					for i := range ref.Pos {
						if ref.Pos[i] != b.Pos[i] || ref.Vel[i] != b.Vel[i] {
							t.Fatalf("resumed trajectory diverged at atom %d:\n  pos %v vs %v\n  vel %v vs %v",
								i, ref.Pos[i], b.Pos[i], ref.Vel[i], b.Vel[i])
						}
					}
					if bE != refE {
						t.Fatalf("final energies differ:\n  resumed %+v\n  straight %+v", bE, refE)
					}
				})
			}
		})
	}
}

// relaxedProtein builds a 600-atom protein.Build system — a 40-atom chain
// with bonds, angles and dihedrals, 23 ions, 179 waters — and moves the
// chain and ions down the force in steps of at most 5 pm until their
// clashes are gone: the builder's random-walk chain puts non-excluded
// atoms as close as 0.02 nm, which would blow the dynamics up.
func relaxedProtein(rc float64, seed int64) *protein.System {
	ps := protein.Build(protein.Params{
		Residues: 5, AtomsPerRes: 8, TotalAtoms: 600,
		Box: vec.NewBox(2.5, 2.5, 2.5), GlobuleR: 1, Seed: seed,
	})
	ff := &md.ForceField{Rc: rc, Alpha: spme.AlphaFromRTol(rc, 1e-4), Bonded: ps.Bonded}
	for k := 0; k < 200; k++ {
		ff.Compute(ps.System)
		for i := 0; i < ps.ProteinAtoms+ps.Ions; i++ {
			if f := ps.Frc[i]; f.Norm() > 0 {
				ps.Pos[i] = ps.Pos[i].Add(f.Scale(math.Min(1e-5, 0.005/f.Norm())))
			}
		}
	}
	return ps
}
