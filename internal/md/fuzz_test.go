package md_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tme4a/internal/md"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// fuzzSeedSnapshot builds a snapshot with every resume field populated,
// so the seed corpus exercises the full wire format, not just the plain
// (box, positions, velocities) core.
func fuzzSeedSnapshot() *md.Snapshot {
	box := water.CubicBoxFor(8)
	sys := water.Build(2, 2, 2, box, 21)
	sys.InitVelocities(300, rand.New(rand.NewSource(4)))
	snap := sys.TakeSnapshot(map[string]int64{"side": 2, "seed": 21})
	snap.Step = 137
	snap.VerletRef = append([]vec.V(nil), snap.Pos...)
	return snap
}

func fuzzSeedBytes(tb testing.TB) []byte { return encodeSnap(tb, fuzzSeedSnapshot()) }

// FuzzSnapshotDecode asserts the gob decode of a Snapshot, which
// ckpt.Decode runs on every checkpoint payload, is total: arbitrary bytes
// either decode (and then validate and re-encode without panicking) or
// return a clean error. A decoder panic or unbounded allocation here
// would turn one corrupt checkpoint file into a crashed resume.
func FuzzSnapshotDecode(f *testing.F) {
	valid := fuzzSeedBytes(f)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Add(valid)
	f.Add(valid[:1])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	corrupt := bytes.Clone(valid)
	corrupt[len(corrupt)/2] ^= 0x10
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // decode cost and allocation scale with input; cap the fuzz domain
		}
		snap, err := decodeSnap(data)
		if err != nil {
			return // a clean error is the correct outcome for garbage
		}
		// Whatever the decoder accepted must be safe to validate and to
		// re-encode; neither may panic even if validation rejects it.
		_ = snap.Validate()
		if _, err := snap.GobEncode(); err != nil {
			t.Fatalf("re-encode of decoded snapshot failed: %v", err)
		}
	})
}

// TestCommittedSeedStillRestores: the committed seed-valid entry was
// encoded when snapshots also carried forces, energies and a cached mesh
// term. Gob skips fields the receiver lacks, so such an old checkpoint
// still decodes and resumes, with its state intact.
func TestCommittedSeedStillRestores(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode", "seed-valid"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(body), "\n")
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := decodeSnap([]byte(data))
	if err != nil {
		t.Fatalf("old snapshot no longer decodes: %v", err)
	}
	want := fuzzSeedSnapshot()
	sys := water.Build(2, 2, 2, snap.Box, 21)
	in := &md.Integrator{FF: &md.ForceField{Rc: 0.25, Skin: 0.05}, Dt: 0.001}
	if err := in.RestoreResume(sys, snap); err != nil {
		t.Fatalf("old snapshot no longer restores: %v", err)
	}
	if in.StepCount() != int(want.Step) || len(snap.VerletRef) != len(want.VerletRef) {
		t.Fatalf("restored step %d with %d reference positions, want %d and %d",
			in.StepCount(), len(snap.VerletRef), want.Step, len(want.VerletRef))
	}
	for i := range want.Pos {
		if sys.Pos[i] != want.Pos[i] || sys.Vel[i] != want.Vel[i] || snap.VerletRef[i] != want.VerletRef[i] {
			t.Fatalf("restored state differs at atom %d", i)
		}
	}
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzSnapshotDecode when TME_WRITE_FUZZ_CORPUS=1 is set
// (it is a no-op otherwise). The corpus pins a real encoded snapshot and
// its truncations so CI fuzzing starts from format-aware inputs even
// before any fuzz cache exists.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("TME_WRITE_FUZZ_CORPUS") != "1" {
		t.Skip("set TME_WRITE_FUZZ_CORPUS=1 to regenerate the committed corpus")
	}
	valid := fuzzSeedBytes(t)
	corrupt := bytes.Clone(valid)
	corrupt[len(corrupt)/2] ^= 0x10
	entries := map[string][]byte{
		"seed-valid":          valid,
		"seed-truncated-half": valid[:len(valid)/2],
		"seed-truncated-tail": valid[:len(valid)-1],
		"seed-corrupt-middle": corrupt,
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range entries {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
