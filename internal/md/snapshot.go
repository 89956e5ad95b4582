package md

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sort"

	"tme4a/internal/vec"
)

// Snapshot is the serializable dynamic state of a System (positions and
// velocities; the static topology is rebuilt by the system builders, which
// are deterministic in their seeds).
//
// Beyond the plain (Box, Pos, Vel, Meta) state, a snapshot can carry the
// resume state captured by Integrator.CaptureResume: the step counter and
// the neighbor-list build positions. With those, Integrator.RestoreResume
// reproduces the uninterrupted trajectory bitwise (see DESIGN.md §7.5);
// without them the snapshot restores like a plain initial condition. It
// holds state only, never a cache: forces and energies are recomputed by
// the first resumed step.
type Snapshot struct {
	Box vec.Box
	Pos []vec.V
	Vel []vec.V
	// Meta carries builder parameters (free-form, e.g. lattice side and
	// seed) so loaders can reconstruct the matching topology.
	Meta map[string]int64

	// Resume extension, zero-valued in plain TakeSnapshot snapshots.
	Step int64 // completed integrator steps at capture time
	// VerletRef holds the positions the live buffered Verlet pair list was
	// built from; re-running Rebuild at these positions reproduces its
	// clusters and entries, and hence the force summation order, bitwise.
	// Empty at Skin 0, whose list the next step rebuilds anyway.
	VerletRef []vec.V
}

// Validate checks the snapshot's self-consistency: matching array
// lengths, a sane periodic box, and no non-finite values anywhere. It is
// called by System.Restore and by the checkpoint loader so that a NaN or
// a truncation smuggled through serialized state is rejected at load
// time, not detonated thousands of steps later.
func (snap *Snapshot) Validate() error {
	n := len(snap.Pos)
	if len(snap.Vel) != n {
		return fmt.Errorf("md: snapshot has %d positions but %d velocities", n, len(snap.Vel))
	}
	if snap.Step < 0 {
		return fmt.Errorf("md: snapshot has negative step count %d", snap.Step)
	}
	for k := 0; k < 3; k++ {
		if l := snap.Box.L[k]; !isFinite(l) || l <= 0 {
			return fmt.Errorf("md: snapshot box edge %d is %g, want finite and positive", k, l)
		}
	}
	if len(snap.VerletRef) != 0 && len(snap.VerletRef) != n {
		return fmt.Errorf("md: snapshot verlet reference covers %d atoms, positions %d", len(snap.VerletRef), n)
	}
	for _, s := range []struct {
		name string
		v    []vec.V
	}{
		{"position", snap.Pos},
		{"velocity", snap.Vel},
		{"verlet reference", snap.VerletRef},
	} {
		for i, v := range s.v {
			if !isFinite(v[0]) || !isFinite(v[1]) || !isFinite(v[2]) {
				return fmt.Errorf("md: snapshot %s %d is not finite: %v", s.name, i, v)
			}
		}
	}
	return nil
}

func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// TakeSnapshot captures the system's dynamic state.
func (s *System) TakeSnapshot(meta map[string]int64) *Snapshot {
	snap := &Snapshot{
		Box:  s.Box,
		Pos:  append([]vec.V(nil), s.Pos...),
		Vel:  append([]vec.V(nil), s.Vel...),
		Meta: meta,
	}
	return snap
}

// Restore copies a snapshot's dynamic state into the system, which must
// have the same atom count. The snapshot is validated first (length
// agreement, box sanity, finite values), so corrupt or hand-edited state
// is rejected here rather than silently integrated.
func (s *System) Restore(snap *Snapshot) error {
	if err := snap.Validate(); err != nil {
		return err
	}
	if len(snap.Pos) != s.N() {
		return fmt.Errorf("md: snapshot has %d atoms, system has %d", len(snap.Pos), s.N())
	}
	s.Box = snap.Box
	copy(s.Pos, snap.Pos)
	copy(s.Vel, snap.Vel)
	return nil
}

// snapshotWire is the gob form a checkpoint payload carries. Meta travels
// as parallel key/value slices in sorted key order: gob serializes maps in
// Go's randomized iteration order, so encoding the map directly makes two
// snapshots of the same state differ byte-wise between runs — a
// determinism leak tmevet's detmap check guards against in code and this
// wire form closes at the serialization boundary.
type snapshotWire struct {
	Box      vec.Box
	Pos      []vec.V
	Vel      []vec.V
	MetaKeys []string
	MetaVals []int64

	Step      int64
	VerletRef []vec.V
}

// GobEncode implements gob.GobEncoder with byte-deterministic output.
func (snap *Snapshot) GobEncode() ([]byte, error) {
	w := snapshotWire{
		Box: snap.Box, Pos: snap.Pos, Vel: snap.Vel,
		Step: snap.Step, VerletRef: snap.VerletRef,
	}
	w.MetaKeys = make([]string, 0, len(snap.Meta))
	for k := range snap.Meta { //tmevet:ignore detmap -- keys are sorted below before anything observes the order
		w.MetaKeys = append(w.MetaKeys, k)
	}
	sort.Strings(w.MetaKeys)
	w.MetaVals = make([]int64, len(w.MetaKeys))
	for i, k := range w.MetaKeys {
		w.MetaVals[i] = snap.Meta[k]
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder for the wire form above.
func (snap *Snapshot) GobDecode(data []byte) error {
	var w snapshotWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	snap.Box, snap.Pos, snap.Vel = w.Box, w.Pos, w.Vel
	snap.Step, snap.VerletRef = w.Step, w.VerletRef
	snap.Meta = nil
	if len(w.MetaKeys) > 0 {
		if len(w.MetaVals) != len(w.MetaKeys) {
			return fmt.Errorf("md: corrupt snapshot meta: %d keys, %d values", len(w.MetaKeys), len(w.MetaVals))
		}
		snap.Meta = make(map[string]int64, len(w.MetaKeys))
		for i, k := range w.MetaKeys {
			snap.Meta[k] = w.MetaVals[i]
		}
	}
	return nil
}
