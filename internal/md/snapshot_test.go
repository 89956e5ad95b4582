package md_test

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"tme4a/internal/md"
	"tme4a/internal/spme"
	"tme4a/internal/water"
)

// encodeSnap renders a snapshot as the gob stream a checkpoint payload
// carries; decodeSnap is the decode ckpt.Decode runs on every payload.
func encodeSnap(tb testing.TB, snap *md.Snapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func decodeSnap(data []byte) (*md.Snapshot, error) {
	var snap md.Snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func TestSnapshotRoundTrip(t *testing.T) {
	box := water.CubicBoxFor(27)
	sys := water.Build(3, 3, 3, box, 5)
	sys.InitVelocities(300, rand.New(rand.NewSource(1)))
	snap := sys.TakeSnapshot(map[string]int64{"side": 3, "seed": 5})

	got, err := decodeSnap(encodeSnap(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	sys2 := water.Build(3, 3, 3, box, 99) // different seed: different positions
	if err := sys2.Restore(got); err != nil {
		t.Fatal(err)
	}
	for i := range sys.Pos {
		if sys2.Pos[i] != sys.Pos[i] || sys2.Vel[i] != sys.Vel[i] {
			t.Fatalf("state mismatch at atom %d", i)
		}
	}
	if got.Meta["side"] != 3 {
		t.Errorf("meta lost: %v", got.Meta)
	}
}

// TestSnapshotEncodingIsByteDeterministic is the regression test for the
// determinism finding behind snapshotWire: gob serializes maps in
// randomized iteration order, so encoding Meta as a map made two
// snapshots of identical state differ byte-wise between runs. The wire
// form carries Meta as sorted key/value slices; identical state must now
// produce identical bytes, every time.
func TestSnapshotEncodingIsByteDeterministic(t *testing.T) {
	box := water.CubicBoxFor(8)
	sys := water.Build(2, 2, 2, box, 11)
	sys.InitVelocities(300, rand.New(rand.NewSource(2)))
	// Enough keys that randomized map order would almost surely differ
	// between two encodings (8! orderings).
	meta := map[string]int64{
		"side": 2, "seed": 11, "a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6,
	}
	first := encodeSnap(t, sys.TakeSnapshot(meta))
	for trial := 0; trial < 8; trial++ {
		// Rebuild the map so its internal layout (and hence gob's
		// would-be iteration order) varies between trials.
		m := make(map[string]int64, len(meta))
		for k, v := range meta {
			m[k] = v
		}
		if buf := encodeSnap(t, sys.TakeSnapshot(m)); !bytes.Equal(first, buf) {
			t.Fatalf("trial %d: identical state encoded to different bytes (%d vs %d)", trial, len(first), len(buf))
		}
	}
	// And the wire form must still round-trip the meta map.
	got, err := decodeSnap(first)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range meta {
		if got.Meta[k] != v {
			t.Fatalf("meta[%q] = %d after round trip, want %d", k, got.Meta[k], v)
		}
	}
}

func TestRestoreRejectsWrongSize(t *testing.T) {
	a := water.Build(2, 2, 2, water.CubicBoxFor(8), 1)
	b := water.Build(3, 3, 3, water.CubicBoxFor(27), 1)
	if err := b.Restore(a.TakeSnapshot(nil)); err == nil {
		t.Error("expected size-mismatch error")
	}
}

// TestVerletSkinPreservesDynamics: trajectories with and without the
// buffered pair list must agree (the buffered list reproduces the exact
// same forces).
func TestVerletSkinPreservesDynamics(t *testing.T) {
	mk := func(skin float64) *md.System {
		box := water.CubicBoxFor(64)
		sys := water.Build(4, 4, 4, box, 9)
		sys.InitVelocities(250, rand.New(rand.NewSource(3)))
		rc := 0.55
		alpha := spme.AlphaFromRTol(rc, 1e-4)
		integ := &md.Integrator{
			FF: &md.ForceField{Alpha: alpha, Rc: rc, Skin: skin},
			Dt: 0.001,
		}
		integ.Run(sys, 80, nil)
		return sys
	}
	a := mk(0)
	b := mk(0.25)
	for i := range a.Pos {
		if a.Pos[i].Sub(b.Pos[i]).Norm() > 1e-9 {
			t.Fatalf("trajectories diverged at atom %d: %v vs %v", i, a.Pos[i], b.Pos[i])
		}
	}
}
