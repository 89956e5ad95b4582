package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tme4a/internal/md"
	"tme4a/internal/obs"
	"tme4a/internal/vec"
)

// testSnap builds a synthetic but fully-populated resume snapshot.
func testSnap(step int64, n int, seed int64) *md.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	rv := func() vec.V { return vec.V{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()} }
	snap := &md.Snapshot{
		Box:  vec.NewBox(2.5, 2.5, 2.5),
		Step: step,
		Meta: map[string]int64{"side": 3, "seed": seed},
	}
	for i := 0; i < n; i++ {
		snap.Pos = append(snap.Pos, rv())
		snap.Vel = append(snap.Vel, rv())
		snap.VerletRef = append(snap.VerletRef, rv())
	}
	return snap
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := &Checkpoint{
		ConfigHash: ConfigHash("method=spme rc=1.0"),
		Snap:       testSnap(500, 12, 1),
		ObsNames:   []string{"mesh_solves", "verlet_rebuilds"},
		ObsVals:    []int64{500, 41},
	}
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

// TestEncodeIsByteDeterministic: same state → same bytes, including after
// a decode round trip (the determinism property of md.Snapshot extended
// to the checkpoint container).
func TestEncodeIsByteDeterministic(t *testing.T) {
	for _, name := range []string{"tiny", "empty-meta", "resume-state", "large"} {
		t.Run(name, func(t *testing.T) {
			seed := int64(ConfigHash(name) % 1000)
			c := &Checkpoint{ConfigHash: ConfigHash(name), Snap: testSnap(seed, int(seed%97)+1, seed)}
			if name == "empty-meta" {
				c.Snap.Meta = nil
			}
			a, err := c.Encode()
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("two encodings of identical state differ")
			}
			dec, err := Decode(a)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := dec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, rt) {
				t.Fatal("decode → re-encode changed the bytes")
			}
		})
	}
}

func TestDecodeRejections(t *testing.T) {
	valid, err := (&Checkpoint{Snap: testSnap(7, 4, 2)}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	corruptPayload := append([]byte(nil), valid...)
	corruptPayload[headerSize+3] ^= 0xff // payload byte flip → CRC catches it
	badLen := append([]byte(nil), valid...)
	badLen[len(magic)] ^= 0x01 // declared length no longer matches
	nan := testSnap(7, 4, 2)
	nan.Vel[2][1] = nanFloat()
	nanBytes := mustEncode(t, &Checkpoint{Snap: nan})

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "too small"},
		{"short", valid[:10], "too small"},
		{"bad magic", append([]byte("NOTACKPT"), valid[8:]...), "bad magic"},
		{"truncated", valid[:len(valid)-9], "truncated"},
		{"declared length mismatch", badLen, "truncated or padded"},
		{"payload corruption", corruptPayload, "CRC mismatch"},
		{"crc field corruption", flipLast(valid), "CRC mismatch"},
		{"nan smuggled in velocities", nanBytes, "not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if err == nil {
				t.Fatal("decode accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// mustEncode builds the file image the way Encode does, but without
// Encode's Validate gate, so state Encode refuses can still be handed to
// Decode, which must refuse it again.
func mustEncode(t *testing.T, c *Checkpoint) []byte {
	t.Helper()
	var payload bytes.Buffer
	w := fileWire{ConfigHash: c.ConfigHash, Snap: c.Snap, ObsNames: c.ObsNames, ObsVals: c.ObsVals}
	if err := gob.NewEncoder(&payload).Encode(&w); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(magic), binary.LittleEndian.AppendUint64(nil, uint64(payload.Len()))...)
	data = append(data, payload.Bytes()...)
	return binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, crcTable))
}

// TestSaveRefusesNonFiniteState: a step whose state has gone non-finite
// is not checkpointed. Save returns the validation error, writes no file,
// counts the failure, and the last healthy checkpoint stays the one a
// resume loads.
func TestSaveRefusesNonFiniteState(t *testing.T) {
	fs := NewMemFS()
	st, err := Open("ck", 3, 99, fs)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewWithClock(func() int64 { return 0 })
	st.SetObs(rec)
	if err := st.Save(testSnap(100, 6, 1)); err != nil {
		t.Fatal(err)
	}
	bad := testSnap(200, 6, 2)
	bad.Vel[3][1] = nanFloat()
	if err := st.Save(bad); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("saving a NaN velocity returned %v, want a not-finite error", err)
	}
	if got := rec.CounterValue(obs.CounterCkptFailures); got != 1 {
		t.Errorf("ckpt_failures = %d, want 1", got)
	}
	names, err := fs.ReadDir("ck")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.Contains(name, FileName(200)) {
			t.Errorf("refused save left %s behind", name)
		}
	}
	c, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if c.Step() != 100 {
		t.Errorf("LoadLatest returned step %d, want the healthy 100", c.Step())
	}
}

func nanFloat() float64 {
	zero := 0.0
	return zero / zero
}

func flipLast(data []byte) []byte {
	out := append([]byte(nil), data...)
	out[len(out)-1] ^= 0xff
	return out
}

func TestStoreSaveLoadAndRetention(t *testing.T) {
	fs := NewMemFS()
	st, err := Open("ck", 3, 99, fs)
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(100); step <= 600; step += 100 {
		if err := st.Save(testSnap(step, 6, step)); err != nil {
			t.Fatalf("save %d: %v", step, err)
		}
	}
	ents := st.Entries()
	if len(ents) != 3 || ents[0].Step != 400 || ents[2].Step != 600 {
		t.Fatalf("retention kept %+v, want steps 400..600", ents)
	}
	names, err := fs.ReadDir("ck")
	if err != nil {
		t.Fatal(err)
	}
	var ckpts []string
	for _, n := range names {
		if strings.HasSuffix(n, fileSuffix) {
			ckpts = append(ckpts, n)
		}
	}
	if len(ckpts) != 3 {
		t.Fatalf("directory holds %v, want 3 checkpoints", names)
	}
	c, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if c.Step() != 600 {
		t.Fatalf("loaded step %d, want 600", c.Step())
	}
	if !reflect.DeepEqual(c.Snap, testSnap(600, 6, 600)) {
		t.Fatal("loaded snapshot differs from saved state")
	}

	// A second store over the same directory discovers the files and
	// keeps pruning correctly.
	st2, err := Open("ck", 3, 99, fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Save(testSnap(700, 6, 700)); err != nil {
		t.Fatal(err)
	}
	ents = st2.Entries()
	if len(ents) != 3 || ents[0].Step != 500 || ents[2].Step != 700 {
		t.Fatalf("post-restart retention kept %+v, want steps 500..700", ents)
	}
}

func TestStoreSameStateSameBytes(t *testing.T) {
	write := func() []byte {
		fs := NewMemFS()
		st, err := Open("ck", 3, 1, fs)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Save(testSnap(250, 9, 4)); err != nil {
			t.Fatal(err)
		}
		data, err := fs.ReadFile(filepath.Join("ck", FileName(250)))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(write(), write()) {
		t.Fatal("two saves of identical state produced different files")
	}
}

func TestConfigHashGuard(t *testing.T) {
	fs := NewMemFS()
	st, err := Open("ck", 3, ConfigHash("rc=1.0"), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(testSnap(100, 4, 1)); err != nil {
		t.Fatal(err)
	}
	st2, err := Open("ck", 3, ConfigHash("rc=1.2"), fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.LoadLatest(); err == nil || !strings.Contains(err.Error(), "different run configuration") {
		t.Fatalf("config mismatch not refused: %v", err)
	}
	// Hash 0 disables the guard on either side.
	st3, err := Open("ck", 3, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st3.LoadLatest(); err != nil {
		t.Fatalf("guard disabled but load failed: %v", err)
	}
}

func TestObsCountersTravel(t *testing.T) {
	clock := int64(0)
	rec := obs.NewWithClock(func() int64 { clock += 10; return clock })
	rec.Add(obs.CounterMeshSolves, 123)
	rec.Add(obs.CounterVerletRebuilds, 7)

	fs := NewMemFS()
	st, err := Open("ck", 3, 1, fs)
	if err != nil {
		t.Fatal(err)
	}
	st.SetObs(rec)
	if err := st.Save(testSnap(100, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if got := rec.CounterValue(obs.CounterCkptWrites); got != 1 {
		t.Errorf("ckpt_writes = %d, want 1", got)
	}
	if got := rec.CounterValue(obs.CounterCkptBytes); got <= 0 {
		t.Errorf("ckpt_bytes = %d, want > 0", got)
	}
	if got := rec.StageCount(obs.StageCheckpoint); got != 1 {
		t.Errorf("checkpoint spans = %d, want 1", got)
	}

	c, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	rec2 := obs.NewWithClock(func() int64 { return 0 })
	c.RestoreObs(rec2)
	if got := rec2.CounterValue(obs.CounterMeshSolves); got != 123 {
		t.Errorf("restored mesh_solves = %d, want 123", got)
	}
	if got := rec2.CounterValue(obs.CounterVerletRebuilds); got != 7 {
		t.Errorf("restored verlet_rebuilds = %d, want 7", got)
	}
	// Unknown counter names are dropped, not misattributed.
	c.ObsNames = append(c.ObsNames, "from_the_future")
	c.ObsVals = append(c.ObsVals, 1e6)
	c.RestoreObs(rec2)
	if got := rec2.CounterValue(obs.CounterMeshSolves); got != 123 {
		t.Errorf("unknown counter restore disturbed mesh_solves: %d", got)
	}
	// The other direction: a checkpoint from a build that predates a
	// counter (here pairs_evaluated) carries no entry for it, and restores
	// with that counter at zero and every other one intact.
	var names []string
	var vals []int64
	for i, name := range c.ObsNames {
		if name != obs.CounterPairsEvaluated.String() && name != "from_the_future" {
			names, vals = append(names, name), append(vals, c.ObsVals[i])
		}
	}
	if len(names) != int(obs.NumCounters)-1 {
		t.Fatalf("checkpoint carried %d known counters besides pairs_evaluated, want %d", len(names), obs.NumCounters-1)
	}
	old := &Checkpoint{ConfigHash: c.ConfigHash, Snap: c.Snap, ObsNames: names, ObsVals: vals}
	data, err := old.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("checkpoint without pairs_evaluated does not decode: %v", err)
	}
	rec3 := obs.NewWithClock(func() int64 { return 0 })
	back.RestoreObs(rec3)
	if got := rec3.CounterValue(obs.CounterPairsEvaluated); got != 0 {
		t.Errorf("pairs_evaluated = %d after restoring a checkpoint that predates it, want 0", got)
	}
	if got := rec3.CounterValue(obs.CounterMeshSolves); got != 123 {
		t.Errorf("restored mesh_solves = %d from the older checkpoint, want 123", got)
	}
}

func TestLoadLatestEmptyDir(t *testing.T) {
	fs := NewMemFS()
	st, err := Open("ck", 3, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: got %v, want ErrNoCheckpoint", err)
	}
}

func TestStepFromName(t *testing.T) {
	cases := []struct {
		name string
		step int64
		ok   bool
	}{
		{"ckpt-000000000500.tme", 500, true},
		{"ckpt-000000000500.tme.tmp", 0, false},
		{"ckpt-000000000500.gob", 0, false},
		{"ckpt-.tme", 0, false},
		{"ckpt-xx.tme", 0, false},
		{"ckpt-1.tme", 1, true},
	}
	for _, tc := range cases {
		step, ok := stepFromName(tc.name)
		if step != tc.step || ok != tc.ok {
			t.Errorf("stepFromName(%q) = %d,%v want %d,%v", tc.name, step, ok, tc.step, tc.ok)
		}
	}
}

// TestOSFSRoundTrip exercises the real-filesystem implementation once so
// the osFS code paths (including SyncDir) are covered on the platform CI
// runs on.
func TestOSFSRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := Open(dir, 2, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(10); step <= 40; step += 10 {
		if err := st.Save(testSnap(step, 5, step)); err != nil {
			t.Fatalf("save %d: %v", step, err)
		}
	}
	c, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if c.Step() != 40 {
		t.Fatalf("loaded step %d, want 40", c.Step())
	}
	if len(st.Entries()) != 2 {
		t.Fatalf("retention kept %d, want 2", len(st.Entries()))
	}
}
