package water

import (
	"testing"

	"tme4a/internal/md"
)

// TestRebuildRoundTrip: a snapshot of a Fresh box carrying Meta's record
// rebuilds the lattice of the recorded side and seed, and restoring the snapshot onto it gives
// back the same state bit for bit.
func TestRebuildRoundTrip(t *testing.T) {
	sys := Fresh(3, 5, 10, 0.001, 300, 0)
	Draw(sys, 300, 5)
	snap := sys.TakeSnapshot(Meta(3, 5))
	back, err := Rebuild(snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != sys.N() || len(back.RigidWaters) != len(sys.RigidWaters) {
		t.Fatalf("rebuilt %d atoms, %d waters; want %d, %d", back.N(), len(back.RigidWaters), sys.N(), len(sys.RigidWaters))
	}
	for i, p := range Build(3, 3, 3, snap.Box, 5).Pos {
		if back.Pos[i] != p {
			t.Fatalf("rebuilt lattice atom %d at %v, Build on the recorded seed at %v", i, back.Pos[i], p)
		}
	}
	if err := back.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if md.StateHash(back) != md.StateHash(sys) {
		t.Error("restored state differs from the snapshot's")
	}
	if _, err := Rebuild(&md.Snapshot{Box: snap.Box, Pos: snap.Pos, Vel: snap.Vel}); err == nil {
		t.Error("Rebuild of a snapshot without builder meta succeeded")
	}
}
