package md_test

import (
	"math/rand"
	"testing"

	"tme4a/internal/md"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// TestIntegrationPhasesComposeOverOwners: the two integration phases and
// the force merge, run once per owner over two disjoint ownership sets
// (molecules dealt alternately, phases interleaved in different owner
// orders), leave positions, velocities and forces bit-equal to the single
// all-atoms call — with rigid waters, and with the same atoms unconstrained.
func TestIntegrationPhasesComposeOverOwners(t *testing.T) {
	const dt = 0.002
	for _, rigid := range []bool{true, false} {
		name := "free"
		if rigid {
			name = "rigid"
		}
		t.Run(name, func(t *testing.T) {
			var mesh []vec.V
			var owners [2]md.Owned
			build := func() *md.System {
				sys := water.Build(3, 3, 3, water.CubicBoxFor(27), 5)
				sys.InitVelocities(300, rand.New(rand.NewSource(6)))
				rng := rand.New(rand.NewSource(7))
				mesh = make([]vec.V, sys.N())
				for i := range sys.Frc {
					sys.Frc[i] = vec.V{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(300)
					mesh[i] = vec.V{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
				}
				owners = [2]md.Owned{}
				for wi, w := range sys.RigidWaters {
					o := &owners[wi%2]
					for _, i := range w {
						o.Atoms = append(o.Atoms, int32(i))
					}
					if rigid {
						o.Waters = append(o.Waters, int32(wi))
					}
				}
				if !rigid {
					sys.RigidWaters, sys.WaterModel = nil, nil
				}
				return sys
			}

			ref := build()
			all := ref.All()
			if len(all.Atoms) != ref.N() || len(all.Waters) != len(ref.RigidWaters) {
				t.Fatalf("All() lists %d atoms and %d waters of %d and %d", len(all.Atoms), len(all.Waters), ref.N(), len(ref.RigidWaters))
			}
			ref.KickDrift(all, dt, make([]vec.V, 3*len(all.Waters)), nil)
			md.MergeForces(ref.Frc, mesh, nil, all.Atoms)
			ref.KickConstrain(all, dt, nil)

			got := build()
			for _, o := range owners {
				got.KickDrift(o, dt, make([]vec.V, 3*len(o.Waters)), nil)
			}
			for _, k := range []int{1, 0} {
				md.MergeForces(got.Frc, mesh, nil, owners[k].Atoms)
				got.KickConstrain(owners[k], dt, nil)
			}
			for i := range ref.Pos {
				if got.Pos[i] != ref.Pos[i] || got.Vel[i] != ref.Vel[i] || got.Frc[i] != ref.Frc[i] {
					t.Fatalf("atom %d: pos %v vel %v frc %v, all-atoms call %v %v %v",
						i, got.Pos[i], got.Vel[i], got.Frc[i], ref.Pos[i], ref.Vel[i], ref.Frc[i])
				}
			}
		})
	}
}
