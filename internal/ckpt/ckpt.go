// Package ckpt is the crash-consistent checkpoint/restart subsystem: it
// persists the complete resume state of an MD run (md.Snapshot with its
// resume extension, plus obs counters and a run-configuration hash) as
// self-describing, CRC-guarded, byte-deterministic files written with the
// temp-file + fsync + rename + dir-fsync protocol, keeps the last K under
// a retention policy, and recovers the newest valid checkpoint after any
// interruption — including torn or short writes, failed fsyncs and
// crashes at arbitrary syscalls, which the FS seam makes directly
// testable: in the test-support package internal/ckpt/ckpttest, DiskFS
// models power loss over a plain in-memory MemFS and FaultFS fails any
// single operation. See DESIGN.md §7.5 for the contracts.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"tme4a/internal/md"
	"tme4a/internal/obs"
)

// File layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "TMECKPT1" (version is part of the magic)
//	8       8     payload length N
//	16      N     payload: gob(fileWire)
//	16+N    4     CRC-32C (Castagnoli) over bytes [0, 16+N)
//
// The payload is gob of fileWire, whose md.Snapshot field serializes
// through the byte-deterministic snapshotWire form, so identical state
// always produces identical files.
const (
	magic      = "TMECKPT1"
	headerSize = len(magic) + 8
	crcSize    = 4
	// maxPayload bounds the declared payload length before any
	// allocation, so a corrupt header cannot ask the decoder to allocate
	// unbounded memory.
	maxPayload = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNoCheckpoint is returned by LoadLatest when the directory holds no
// checkpoint at all (as opposed to holding only invalid ones, which is an
// ordinary error naming each rejection).
var ErrNoCheckpoint = errors.New("ckpt: no checkpoint found")

// Checkpoint is one captured run state.
type Checkpoint struct {
	// ConfigHash fingerprints the run configuration (ConfigHash helper);
	// resuming under a different configuration is refused.
	ConfigHash uint64
	// Snap is the complete resume state (md.Integrator.CaptureResume).
	Snap *md.Snapshot
	// ObsNames/ObsVals carry the cumulative obs counter values by name,
	// so a resumed run's counters continue instead of restarting and
	// unknown counters from another build are dropped, not misread.
	ObsNames []string
	ObsVals  []int64
}

// Step returns the number of completed steps the checkpoint captures.
func (c *Checkpoint) Step() int64 { return c.Snap.Step }

// RestoreObs sets the recorder's counters to the checkpointed values;
// names the current build does not know are ignored.
func (c *Checkpoint) RestoreObs(r *obs.Recorder) {
	if r == nil {
		return
	}
	for i, name := range c.ObsNames {
		if ctr, ok := obs.CounterFromJSONName(name); ok {
			r.SetCounter(ctr, c.ObsVals[i])
		}
	}
}

// fileWire is the gob payload of a checkpoint file.
type fileWire struct {
	ConfigHash uint64
	Snap       *md.Snapshot
	ObsNames   []string
	ObsVals    []int64
}

// Encode renders the checkpoint as a byte-deterministic file image
// (same state → same bytes). It refuses a snapshot that Decode would
// reject (Snapshot.Validate: lengths, box, finite values), so a run that
// has gone numerically bad never replaces a good checkpoint with a file
// no resume can load.
func (c *Checkpoint) Encode() ([]byte, error) {
	if c.Snap == nil {
		return nil, errors.New("ckpt: nil snapshot")
	}
	if len(c.ObsNames) != len(c.ObsVals) {
		return nil, fmt.Errorf("ckpt: %d counter names, %d values", len(c.ObsNames), len(c.ObsVals))
	}
	if err := c.Snap.Validate(); err != nil {
		return nil, fmt.Errorf("ckpt: invalid snapshot: %w", err)
	}
	var payload bytes.Buffer
	w := fileWire{ConfigHash: c.ConfigHash, Snap: c.Snap, ObsNames: c.ObsNames, ObsVals: c.ObsVals}
	if err := gob.NewEncoder(&payload).Encode(&w); err != nil {
		return nil, fmt.Errorf("ckpt: encode: %w", err)
	}
	buf := make([]byte, 0, headerSize+payload.Len()+crcSize)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payload.Len()))
	buf = append(buf, payload.Bytes()...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	return buf, nil
}

// Decode parses and fully validates a checkpoint file image: magic,
// declared length, CRC, payload decode, and snapshot sanity (lengths,
// box, finite values). Arbitrary or truncated bytes produce a precise
// error, never a panic or an unbounded allocation.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) < headerSize+crcSize {
		return nil, fmt.Errorf("ckpt: file too small (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", data[:len(magic)])
	}
	n := binary.LittleEndian.Uint64(data[len(magic):headerSize])
	if n > maxPayload {
		return nil, fmt.Errorf("ckpt: declared payload %d exceeds limit", n)
	}
	if int(n) != len(data)-headerSize-crcSize {
		return nil, fmt.Errorf("ckpt: truncated or padded: header declares %d payload bytes, file carries %d",
			n, len(data)-headerSize-crcSize)
	}
	body := data[:len(data)-crcSize]
	want := binary.LittleEndian.Uint32(data[len(data)-crcSize:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("ckpt: CRC mismatch (file %08x, computed %08x): corrupt checkpoint", want, got)
	}
	var w fileWire
	if err := gob.NewDecoder(bytes.NewReader(body[headerSize:])).Decode(&w); err != nil {
		return nil, fmt.Errorf("ckpt: payload decode: %w", err)
	}
	if w.Snap == nil {
		return nil, errors.New("ckpt: payload carries no snapshot")
	}
	if len(w.ObsNames) != len(w.ObsVals) {
		return nil, fmt.Errorf("ckpt: corrupt counters: %d names, %d values", len(w.ObsNames), len(w.ObsVals))
	}
	if err := w.Snap.Validate(); err != nil {
		return nil, fmt.Errorf("ckpt: invalid snapshot: %w", err)
	}
	return &Checkpoint{ConfigHash: w.ConfigHash, Snap: w.Snap, ObsNames: w.ObsNames, ObsVals: w.ObsVals}, nil
}

// ConfigHash returns a stable FNV-1a fingerprint of a canonical run-
// configuration string. Callers build the string from every parameter
// that shapes the trajectory (system, seeds, cutoffs, method, dt); the
// store refuses to resume a checkpoint whose hash differs.
func ConfigHash(canonical string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(canonical)) //tmevet:ignore errdrop -- hash.Hash Write never errors (fnv)
	return h.Sum64()
}

// Entry describes one checkpoint file known to a store.
type Entry struct {
	Name string // base name, ckpt-<step>.tme
	Step int64
	Size int64
}

const (
	filePrefix = "ckpt-"
	fileSuffix = ".tme"
	tmpSuffix  = ".tmp"
)

func FileName(step int64) string {
	return fmt.Sprintf("%s%012d%s", filePrefix, step, fileSuffix)
}

// stepFromName parses the step out of a checkpoint base name.
func stepFromName(name string) (int64, bool) {
	rest, ok := strings.CutPrefix(name, filePrefix)
	if !ok {
		return 0, false
	}
	digits, ok := strings.CutSuffix(rest, fileSuffix)
	if !ok || digits == "" {
		return 0, false
	}
	step, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || step < 0 {
		return 0, false
	}
	return step, true
}

// Store writes and recovers checkpoints in one directory.
type Store struct {
	dir  string
	keep int
	fs   FS
	hash uint64
	rec  *obs.Recorder

	entries []Entry // known durable checkpoints, ascending step
}

// Open prepares a checkpoint store in dir, retaining the newest keep
// checkpoints (keep <= 0 means 3). configHash guards against resuming
// under a different run configuration (0 disables the guard). fsys nil
// means the real filesystem.
func Open(dir string, keep int, configHash uint64, fsys FS) (*Store, error) {
	if fsys == nil {
		fsys = OS()
	}
	if keep <= 0 {
		keep = 3
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("ckpt: create %s: %w", dir, err)
	}
	s := &Store{dir: dir, keep: keep, fs: fsys, hash: configHash}
	// Discover pre-existing checkpoints so retention keeps working across
	// process restarts. Unreadable files are left alone here; LoadLatest
	// judges validity.
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: scan %s: %w", dir, err)
	}
	for _, name := range names {
		if step, ok := stepFromName(name); ok {
			s.entries = append(s.entries, Entry{Name: name, Step: step})
		}
	}
	return s, nil
}

// SetObs attaches a stage recorder: Save runs under the checkpoint-write
// span, counts durable writes/bytes/failures, and embeds the cumulative
// counter values into each checkpoint.
func (s *Store) SetObs(r *obs.Recorder) { s.rec = r }

// Entries returns the checkpoints the store believes exist, ascending by
// step.
func (s *Store) Entries() []Entry { return append([]Entry(nil), s.entries...) }

// Save persists snap as the checkpoint for snap.Step using the atomic
// protocol: write ckpt-<step>.tme.tmp, fsync it, close, rename over the
// final name, fsync the directory; then prune beyond the retention limit.
// A failure at any point leaves every previously durable checkpoint
// untouched; a snapshot Encode refuses (a NaN or Inf position or
// velocity) writes nothing at all.
func (s *Store) Save(snap *md.Snapshot) error {
	sp := s.rec.Start(obs.StageCheckpoint)
	defer sp.Stop()
	err := s.save(snap)
	if err != nil {
		s.rec.Add(obs.CounterCkptFailures, 1)
	}
	return err
}

func (s *Store) save(snap *md.Snapshot) error {
	c := &Checkpoint{ConfigHash: s.hash, Snap: snap}
	if s.rec.Enabled() {
		vals := s.rec.CounterValues()
		c.ObsNames = make([]string, len(vals))
		for i := range vals {
			c.ObsNames[i] = obs.Counter(i).String()
		}
		c.ObsVals = vals
	}
	data, err := c.Encode()
	if err != nil {
		return err
	}
	name := FileName(snap.Step)
	if err := WriteFileAtomic(s.fs, s.dir, name, data); err != nil {
		return fmt.Errorf("ckpt: write %s: %w", name, err)
	}
	s.rec.Add(obs.CounterCkptWrites, 1)
	s.rec.Add(obs.CounterCkptBytes, int64(len(data)))

	// Update the in-memory ledger (replacing any same-step entry), trim
	// it to the retention limit, then remove the pruned files. The new
	// checkpoint is already durable, so a crash anywhere in the pruning
	// leaves only extra old files, which the next Open finds and prunes.
	kept := s.entries[:0]
	for _, e := range s.entries {
		if e.Name != name {
			kept = append(kept, e)
		}
	}
	s.entries = append(kept, Entry{Name: name, Step: snap.Step, Size: int64(len(data))})
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].Step < s.entries[j].Step })
	var pruned []Entry
	if excess := len(s.entries) - s.keep; excess > 0 {
		pruned = append(pruned, s.entries[:excess]...)
		s.entries = append([]Entry(nil), s.entries[excess:]...)
	}
	for _, e := range pruned {
		if err := s.fs.Remove(filepath.Join(s.dir, e.Name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("ckpt: prune %s: %w", e.Name, err)
		}
	}
	return nil
}

// WriteFileAtomic writes data to dir/name through fsys via temp + fsync +
// rename + dir-fsync, so a crash leaves either the old file or the whole
// new one. On failure the temp file is removed best-effort.
func WriteFileAtomic(fsys FS, dir, name string, data []byte) error {
	final := filepath.Join(dir, name)
	tmp := final + tmpSuffix
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		f.Close()        //tmevet:ignore errdrop -- already failing; the first error wins
		fsys.Remove(tmp) //tmevet:ignore errdrop -- best-effort temp cleanup on the failure path
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		return cleanup(err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp) //tmevet:ignore errdrop -- best-effort temp cleanup on the failure path
		return err
	}
	return fsys.SyncDir(dir)
}

// LoadLatest recovers the newest valid checkpoint: it scans the
// directory, validates candidates newest-first — CRC, structure, snapshot sanity,
// configuration hash — and returns the first that passes. Invalid
// candidates are skipped with their reasons collected; if nothing
// survives, the error says precisely why each candidate was rejected, or
// ErrNoCheckpoint when the directory holds none at all.
func (s *Store) LoadLatest() (*Checkpoint, error) {
	all, err := s.fs.ReadDir(s.dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("ckpt: scan %s: %w", s.dir, err)
	}
	var names []string
	for _, name := range all {
		if _, ok := stepFromName(name); ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, s.dir)
	}
	// Newest first: steps are zero-padded in names, so reverse
	// lexicographic order is descending step order.
	sort.Sort(sort.Reverse(sort.StringSlice(names)))

	var reasons []string
	for _, name := range names {
		data, err := s.fs.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			reasons = append(reasons, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		c, err := Decode(data)
		if err != nil {
			reasons = append(reasons, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		if s.hash != 0 && c.ConfigHash != 0 && c.ConfigHash != s.hash {
			return nil, fmt.Errorf("ckpt: %s was written under a different run configuration (hash %016x, want %016x)",
				name, c.ConfigHash, s.hash)
		}
		return c, nil
	}
	return nil, fmt.Errorf("ckpt: no valid checkpoint in %s: %s", s.dir, strings.Join(reasons, "; "))
}
