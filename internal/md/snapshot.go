package md

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"tme4a/internal/vec"
)

// Snapshot is the serializable dynamic state of a System (positions and
// velocities; the static topology is rebuilt by the system builders, which
// are deterministic in their seeds).
//
// Beyond the plain (Box, Pos, Vel, Meta) state, a snapshot can carry the
// full cross-step resume state captured by Integrator.CaptureResume: the
// step counter, the forces of the last completed step, the neighbor-list
// build positions and the cached long-range forces of a multiple-timestep
// schedule. With those present, Integrator.RestoreResume reproduces the
// uninterrupted trajectory bitwise (see DESIGN.md §7.5); without them the
// snapshot restores like a plain initial condition.
type Snapshot struct {
	Box vec.Box
	Pos []vec.V
	Vel []vec.V
	// Meta carries builder parameters (free-form, e.g. lattice side and
	// seed) so loaders can reconstruct the matching topology.
	Meta map[string]int64

	// Resume extension, zero-valued in plain TakeSnapshot snapshots.
	Step  int64    // completed integrator steps at capture time
	Frc   []vec.V  // forces at the end of step Step (empty: not captured)
	LastE Energies // energies of step Step
	// VerletRef holds the positions the live buffered Verlet pair list was
	// built from; re-running Rebuild at these positions reproduces its
	// clusters and entries, and hence the force summation order, bitwise. Empty at
	// Skin 0, whose list the next step rebuilds anyway.
	VerletRef []vec.V
	// MeshForces/MeshEnergy/MeshExcl are the cached long-range term of a
	// multiple-timestep schedule (Integrator.MeshEvery > 1), valid when
	// HasMesh is set. They were computed at the last mesh step's
	// positions, so recomputing at the snapshot positions would not be
	// the same replay.
	MeshForces []vec.V
	MeshEnergy float64
	MeshExcl   float64
	HasMesh    bool
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
	for _, s := range []struct {
		name string
		v    []vec.V
	}{
		{"forces", snap.Frc},
		{"verlet reference", snap.VerletRef},
		{"mesh forces", snap.MeshForces},
	} {
		if len(s.v) != 0 && len(s.v) != n {
			return fmt.Errorf("md: snapshot %s cover %d atoms, positions %d", s.name, len(s.v), n)
		}
	}
	if snap.HasMesh {
		if len(snap.MeshForces) != n {
			return fmt.Errorf("md: snapshot claims cached mesh forces but carries %d of %d", len(snap.MeshForces), n)
		}
		if !isFinite(snap.MeshEnergy) || !isFinite(snap.MeshExcl) {
			return fmt.Errorf("md: snapshot mesh energies are not finite (%g, %g)", snap.MeshEnergy, snap.MeshExcl)
		}
	}
	for _, s := range []struct {
		name string
		v    []vec.V
	}{
		{"position", snap.Pos},
		{"velocity", snap.Vel},
		{"force", snap.Frc},
		{"verlet reference", snap.VerletRef},
		{"mesh force", snap.MeshForces},
	} {
		for i, v := range s.v {
			if !isFinite(v[0]) || !isFinite(v[1]) || !isFinite(v[2]) {
				return fmt.Errorf("md: snapshot %s %d is not finite: %v", s.name, i, v)
			}
		}
	}
	for _, e := range [...]float64{
		snap.LastE.CoulShort, snap.LastE.CoulLong, snap.LastE.CoulExcl,
		snap.LastE.LJ, snap.LastE.Bonded, snap.LastE.Kinetic,
	} {
		if !isFinite(e) {
			return fmt.Errorf("md: snapshot energies are not finite: %+v", snap.LastE)
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

// snapshotWire is the on-disk form. Meta travels as parallel key/value
// slices in sorted key order: gob serializes maps in Go's randomized
// iteration order, so encoding the map directly makes two snapshots of
// the same state differ byte-wise between runs — a determinism leak
// tmevet's detmap check guards against in code and this wire form closes
// at the serialization boundary.
type snapshotWire struct {
	Box      vec.Box
	Pos      []vec.V
	Vel      []vec.V
	MetaKeys []string
	MetaVals []int64

	Step       int64
	Frc        []vec.V
	LastE      Energies
	VerletRef  []vec.V
	MeshForces []vec.V
	MeshEnergy float64
	MeshExcl   float64
	HasMesh    bool
}

// GobEncode implements gob.GobEncoder with byte-deterministic output.
func (snap *Snapshot) GobEncode() ([]byte, error) {
	w := snapshotWire{
		Box: snap.Box, Pos: snap.Pos, Vel: snap.Vel,
		Step: snap.Step, Frc: snap.Frc, LastE: snap.LastE,
		VerletRef: snap.VerletRef, MeshForces: snap.MeshForces,
		MeshEnergy: snap.MeshEnergy, MeshExcl: snap.MeshExcl,
		HasMesh: snap.HasMesh,
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
	snap.Step, snap.Frc, snap.LastE = w.Step, w.Frc, w.LastE
	snap.VerletRef, snap.MeshForces = w.VerletRef, w.MeshForces
	snap.MeshEnergy, snap.MeshExcl, snap.HasMesh = w.MeshEnergy, w.MeshExcl, w.HasMesh
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

// Encode serializes the snapshot with encoding/gob. The byte stream is a
// pure function of the snapshot contents (see snapshotWire).
func (snap *Snapshot) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(snap)
}

// ReadSnapshot deserializes a snapshot.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var snap Snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// SaveSnapshot writes the snapshot to a file.
func SaveSnapshot(path string, snap *Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return snap.Encode(f)
}

// LoadSnapshot reads a snapshot from a file.
func LoadSnapshot(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// EnergyReporter writes a CSV energy ledger, one row per report, for
// trajectory analysis (the Fig. 4 series use this format).
type EnergyReporter struct {
	W     io.Writer
	Dt    float64 // ps per step
	wrote bool
}

// Report writes one row (writing the header first if needed); it is shaped
// to plug into Integrator.Run.
func (r *EnergyReporter) Report(step int, e Energies) {
	if !r.wrote {
		fmt.Fprintln(r.W, "time_ps,potential,kinetic,total,coul_short,coul_long,coul_excl,lj,bonded")
		r.wrote = true
	}
	fmt.Fprintf(r.W, "%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
		float64(step)*r.Dt, e.Potential(), e.Kinetic, e.Total(),
		e.CoulShort, e.CoulLong, e.CoulExcl, e.LJ, e.Bonded)
}
