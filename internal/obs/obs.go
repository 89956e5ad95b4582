// Package obs is the stage-level observability layer of the simulation
// stack: preregistered per-stage timers and counters for the pipeline the
// paper charts in Fig. 9 (charge assignment, restriction, grid
// convolution, top-level SPME, prolongation, back interpolation,
// short-range, bonded, constraints, and the overlap window of the force
// terms).
//
// Design constraints, in order:
//
//   - Determinism. Instrumentation must never change a trajectory bitwise.
//     The recorder therefore touches no numeric state: it only reads an
//     injected monotonic clock and adds into fixed atomic slots. Simulation
//     code never calls time.Now directly — the only sanctioned time source
//     in internal/ is this package's clock seam (clock.go), which the
//     tmevet clock check enforces statically.
//
//   - Zero allocation. Start/Stop/Add are allocation-free on the enabled
//     path (fixed-size slot arrays, no maps, value Spans) so the
//     //tme:noalloc hot paths of PRs 1–2 can carry spans without breaking
//     their AllocsPerRun gates.
//
//   - Zero cost when disabled. Every method no-ops on a nil *Recorder, so
//     uninstrumented runs pay one nil check per span — the ForceField,
//     Integrator, meshers and plans all hold a nil recorder by default.
//
// Stages nest (fft inside the top-level SPME solve, the neighbor-list
// rebuild inside short-range, everything inside the step total); the
// stage table in obs.go is the one statement of that nesting, which
// Stage.Within answers and the tuner's cost rows are keyed by. The report
// presents raw per-stage sums and leaves the hierarchy to the reader,
// exactly like the paper's machine-time chart.
package obs

import "sync/atomic"

// Stage identifies one preregistered pipeline stage. The order is the
// pipeline order used by the report renderer.
type Stage uint8

const (
	StageAssign     Stage = iota // charge assignment (anterpolation) onto the finest grid
	StageRestrict                // two-scale restriction, downward pass over all levels
	StageConv                    // separable middle-range grid convolutions
	StageTopSPME                 // top-level SPME solve (FFT · Green · IFFT)
	StageFFT                     // 3D real-FFT transforms (nested inside the top solve)
	StageProlong                 // two-scale prolongation, upward pass
	StageInterp                  // back interpolation of potentials and forces
	StageMesh                    // whole long-range mesh solve (assign .. interp + self)
	StageShortRange              // short-range nonbonded pair engine
	StageNeighbor                // Verlet pair-list / cell-list rebuild
	StageBonded                  // bonded terms
	StageConstraint              // SETTLE position + velocity constraints
	StageMerge                   // per-atom force-buffer merge
	StageOverlap                 // overlap window of the force terms (one par.For)
	StageIntegrate               // kick/drift integration bookkeeping
	StageStep                    // whole Integrator.Step
	StageCheckpoint              // checkpoint encode + atomic write (outside the step)
	NumStages                    // number of preregistered stages
)

// stageTable holds each stage's chart label, JSON name and the innermost
// stage whose spans enclose its own (NumStages for none). A plain SPME
// solve records no top span and the rank engine no overlap window; there
// the fft and the force terms sit one level up.
var stageTable = [NumStages]struct {
	label, json string
	in          Stage
}{
	StageAssign:     {"charge assign", "charge_assign", StageMesh},
	StageRestrict:   {"restrict", "restrict", StageMesh},
	StageConv:       {"grid conv", "grid_conv", StageMesh},
	StageTopSPME:    {"top SPME", "top_spme", StageMesh},
	StageFFT:        {"fft", "fft", StageTopSPME},
	StageProlong:    {"prolong", "prolong", StageMesh},
	StageInterp:     {"back interp", "back_interp", StageMesh},
	StageMesh:       {"mesh total", "mesh_total", StageOverlap},
	StageShortRange: {"short-range", "short_range", StageOverlap},
	StageNeighbor:   {"neighbor build", "neighbor_build", StageShortRange},
	StageBonded:     {"bonded", "bonded", StageOverlap},
	StageConstraint: {"constraint", "constraint", StageStep},
	StageMerge:      {"force merge", "force_merge", StageStep},
	StageOverlap:    {"overlap window", "overlap_window", StageStep},
	StageIntegrate:  {"integrate", "integrate", StageStep},
	StageStep:       {"step total", "step_total", NumStages},
	StageCheckpoint: {"ckpt write", "ckpt_write", NumStages},
}

// String returns the chart label of the stage.
func (s Stage) String() string {
	if s >= NumStages {
		return "unknown"
	}
	return stageTable[s].label
}

// JSONName returns the machine-readable identifier of the stage.
func (s Stage) JSONName() string {
	if s >= NumStages {
		return "unknown"
	}
	return stageTable[s].json
}

// Within reports whether stage s is t or nested, at any depth, inside t.
func (s Stage) Within(t Stage) bool {
	for ; s < NumStages; s = stageTable[s].in {
		if s == t {
			return true
		}
	}
	return false
}

// Counter identifies one preregistered event counter.
type Counter uint8

const (
	CounterMeshSolves     Counter = iota // long-range mesh evaluations
	CounterVerletRebuilds                // Verlet pair-list rebuilds
	CounterVerletPairs                   // pairs enumerated across all rebuilds
	CounterCellRebuilds                  // cell-list rebuilds
	CounterFFTTransforms                 // 3D real-FFT transforms (forward + inverse)
	CounterPoolGets                      // grid-pool Get calls
	CounterPoolMisses                    // grid-pool Gets that had to allocate
	CounterCkptWrites                    // checkpoints written durably
	CounterCkptBytes                     // checkpoint bytes written durably
	CounterCkptFailures                  // checkpoint writes that failed (fault or I/O error)
	CounterPairsEvaluated                // pairs inside the cutoff evaluated by the short-range kernel, summed over evaluations
	NumCounters                          // number of preregistered counters
)

// counterJSONNames are the counter identifiers, indexed by Counter.
var counterJSONNames = [NumCounters]string{
	"mesh_solves",
	"verlet_rebuilds",
	"verlet_pairs",
	"cell_rebuilds",
	"fft_transforms",
	"pool_gets",
	"pool_misses",
	"ckpt_writes",
	"ckpt_bytes",
	"ckpt_failures",
	"pairs_evaluated",
}

// CounterFromJSONName maps a counter identifier (Counter.String) back to
// its enum value; ok is false for unknown names. Checkpoint restore uses
// this so counter state saved by an older or newer build degrades to
// "unknown counters are dropped" instead of misattributing values.
func CounterFromJSONName(name string) (Counter, bool) {
	for c := Counter(0); c < NumCounters; c++ {
		if counterJSONNames[c] == name {
			return c, true
		}
	}
	return 0, false
}

// String returns the counter's identifier.
func (c Counter) String() string {
	if c >= NumCounters {
		return "unknown"
	}
	return counterJSONNames[c]
}

// slot is one stage's accumulator pair, padded to its own cache line so
// concurrently-updated stages (the overlapped force terms) do not false-share.
type slot struct {
	ns    atomic.Int64
	count atomic.Int64
	_     [48]byte
}

// cslot is one counter's accumulator, cache-line padded like slot.
type cslot struct {
	v atomic.Int64
	_ [56]byte
}

// Recorder accumulates span durations and counter increments into
// fixed-size atomic slot arrays. All methods are safe for concurrent use
// and no-op on a nil receiver. Construct with New or NewWithClock.
type Recorder struct {
	clock    func() int64
	stages   [NumStages]slot
	counters [NumCounters]cslot
}

// New returns an enabled recorder reading the process-monotonic clock.
func New() *Recorder {
	return NewWithClock(monotonicNow)
}

// NewWithClock returns a recorder reading monotonic nanoseconds from
// clock, which must be safe for concurrent use. Tests inject deterministic
// clocks here so report rendering is reproducible.
func NewWithClock(clock func() int64) *Recorder {
	if clock == nil {
		panic("obs: nil clock")
	}
	return &Recorder{clock: clock}
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Span is an open interval of one stage. The zero Span (from a disabled
// recorder) is valid and Stop on it is a no-op.
type Span struct {
	r     *Recorder
	stage Stage
	t0    int64
}

// Start opens a span of stage s. On a nil recorder it returns the zero
// Span and reads no clock.
//
//tme:noalloc
func (r *Recorder) Start(s Stage) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, stage: s, t0: r.clock()}
}

// Stop closes the span, adding its duration to the stage's slot.
//
//tme:noalloc
func (sp Span) Stop() {
	if sp.r == nil {
		return
	}
	sl := &sp.r.stages[sp.stage]
	sl.ns.Add(sp.r.clock() - sp.t0)
	sl.count.Add(1)
}

// Add increments counter c by v.
//
//tme:noalloc
func (r *Recorder) Add(c Counter, v int64) {
	if r == nil {
		return
	}
	r.counters[c].v.Add(v)
}

// StageNs returns the accumulated nanoseconds of stage s.
func (r *Recorder) StageNs(s Stage) int64 {
	if r == nil {
		return 0
	}
	return r.stages[s].ns.Load()
}

// StageCount returns the number of closed spans of stage s.
func (r *Recorder) StageCount(s Stage) int64 {
	if r == nil {
		return 0
	}
	return r.stages[s].count.Load()
}

// CounterValue returns the current value of counter c.
func (r *Recorder) CounterValue(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].v.Load()
}

// CounterValues returns the current value of every counter, indexed by
// Counter. On a nil recorder it returns nil. Checkpointing uses this to
// carry cumulative event counts across a kill+resume.
func (r *Recorder) CounterValues() []int64 {
	if r == nil {
		return nil
	}
	vals := make([]int64, NumCounters)
	for c := Counter(0); c < NumCounters; c++ {
		vals[c] = r.counters[c].v.Load()
	}
	return vals
}

// SetCounter stores v into counter c (absolute, not additive), the
// restore-side counterpart of CounterValues. Not atomic with respect to
// concurrent recording; callers quiesce the pipeline first.
func (r *Recorder) SetCounter(c Counter, v int64) {
	if r == nil || c >= NumCounters {
		return
	}
	r.counters[c].v.Store(v)
}

// Reset zeroes every stage and counter slot. Not atomic with respect to
// concurrent recording; callers quiesce the pipeline first.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.stages {
		r.stages[i].ns.Store(0)
		r.stages[i].count.Store(0)
	}
	for i := range r.counters {
		r.counters[i].v.Store(0)
	}
}
