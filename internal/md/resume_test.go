package md_test

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/md"
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
// the fig4resume harness both lean on.
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
				snap.Frc = randVecs(rng, sys.N())
				snap.VerletRef = randVecs(rng, sys.N())
				snap.MeshForces = randVecs(rng, sys.N())
				snap.MeshEnergy = rng.NormFloat64()
				snap.MeshExcl = rng.NormFloat64()
				snap.HasMesh = true
				snap.LastE = md.Energies{Kinetic: rng.Float64(), LJ: rng.NormFloat64()}
			}

			var first bytes.Buffer
			if err := snap.Encode(&first); err != nil {
				t.Fatal(err)
			}
			got, err := md.ReadSnapshot(bytes.NewReader(first.Bytes()))
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
			if got.Step != snap.Step || got.HasMesh != snap.HasMesh || got.LastE != snap.LastE {
				t.Fatal("resume scalars lost in round trip")
			}

			// Re-encoding the decoded snapshot is byte-identical.
			var second bytes.Buffer
			if err := got.Encode(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("re-encode differs: %d vs %d bytes", first.Len(), second.Len())
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
		{"nan force", func(s *md.Snapshot) { s.Frc = make([]vec.V, len(s.Pos)); s.Frc[0][0] = math.NaN() }},
		{"mesh claim without forces", func(s *md.Snapshot) { s.HasMesh = true }},
		{"nan energy", func(s *md.Snapshot) { s.LastE.CoulLong = math.NaN() }},
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
			var buf bytes.Buffer
			if err := snap.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := md.ReadSnapshot(bytes.NewReader(buf.Bytes()))
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
// reproduce the uninterrupted trajectory bit for bit. Exercised for the
// plain every-step force field, for a skin-0 list under a multiple-timestep
// mesh, and for the hard case — buffered Verlet list plus a
// multiple-timestep mesh whose cached long-range term must replay, not
// recompute. Only the buffered list's build positions travel in the
// snapshot: a skin-0 list is rebuilt by the first step after the resume,
// as by every step.
func TestResumeIsBitwise(t *testing.T) {
	type cfg struct {
		name      string
		skin      float64
		mesh      bool
		meshEvery int
	}
	for _, c := range []cfg{
		{name: "plain", meshEvery: 1},
		{name: "skin0+mts-mesh", mesh: true, meshEvery: 2},
		{name: "verlet+mts-mesh", skin: 0.15, mesh: true, meshEvery: 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			const (
				side     = 3
				seed     = 17
				rc       = 0.55
				dt       = 0.0005
				total    = 50
				breakAt  = 23 // deliberately not a mesh-step multiple
				tempInit = 280.0
			)
			box := water.CubicBoxFor(side * side * side)
			build := func() *md.System {
				sys := water.Build(side, side, side, box, seed)
				sys.InitVelocities(tempInit, rand.New(rand.NewSource(seed)))
				return sys
			}
			mkInteg := func(sysBox vec.Box) *md.Integrator {
				ff := &md.ForceField{Rc: rc, Skin: c.skin}
				if c.mesh {
					alpha := spme.AlphaFromRTol(rc, 1e-4)
					ff.Alpha = alpha
					ff.Mesh = spme.New(spme.Params{Alpha: alpha, Rc: rc, Order: 6, N: [3]int{16, 16, 16}}, sysBox)
				}
				return &md.Integrator{FF: ff, Dt: dt, MeshEvery: c.meshEvery}
			}

			// Uninterrupted reference.
			ref := build()
			refInteg := mkInteg(ref.Box)
			for s := 0; s < total; s++ {
				refInteg.Step(ref)
			}

			// Interrupted run: capture at breakAt…
			a := build()
			ai := mkInteg(a.Box)
			for s := 0; s < breakAt; s++ {
				ai.Step(a)
			}
			snap := ai.CaptureResume(a, map[string]int64{"side": side, "seed": seed})
			if snap.Step != breakAt {
				t.Fatalf("captured step %d, want %d", snap.Step, breakAt)
			}
			if got, want := len(snap.VerletRef) > 0, c.skin > 0; got != want {
				t.Fatalf("snapshot carries a Verlet reference: %v, want %v", got, want)
			}

			// …serialize through the wire format, as a real restart would…
			var buf bytes.Buffer
			if err := snap.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			wire, err := md.ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			// …and continue in fresh objects.
			b := build()
			bi := mkInteg(b.Box)
			if err := bi.RestoreResume(b, wire); err != nil {
				t.Fatal(err)
			}
			if bi.StepCount() != breakAt {
				t.Fatalf("resumed step count %d, want %d", bi.StepCount(), breakAt)
			}
			for s := breakAt; s < total; s++ {
				bi.Step(b)
			}

			for i := range ref.Pos {
				if ref.Pos[i] != b.Pos[i] || ref.Vel[i] != b.Vel[i] {
					t.Fatalf("resumed trajectory diverged at atom %d:\n  pos %v vs %v\n  vel %v vs %v",
						i, ref.Pos[i], b.Pos[i], ref.Vel[i], b.Vel[i])
				}
			}
		})
	}
}
