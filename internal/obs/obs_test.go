package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestNilRecorderIsInert: every method must no-op (not panic) on a nil
// recorder — the disabled path of every instrumented call site.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	sp := r.Start(StageStep)
	sp.Stop()
	r.Record(StageMesh, 123)
	r.Add(CounterPoolGets, 1)
	r.Reset()
	if r.StageNs(StageStep) != 0 || r.StageCount(StageStep) != 0 || r.CounterValue(CounterPoolGets) != 0 {
		t.Fatal("nil recorder returned nonzero readings")
	}
	rep := r.Report("nil", 0, 1)
	if len(rep.Stages) != 0 || len(rep.Counters) != 0 {
		t.Fatalf("nil recorder produced a non-empty report: %+v", rep)
	}
}

// TestSpanAccumulation checks sums, counts and Reset with a scripted
// clock.
func TestSpanAccumulation(t *testing.T) {
	var now int64
	r := NewWithClock(func() int64 { return now })
	for i := 0; i < 3; i++ {
		sp := r.Start(StageConv)
		now += 1000
		sp.Stop()
	}
	r.Record(StageConv, 500)
	if got := r.StageNs(StageConv); got != 3500 {
		t.Errorf("StageConv ns = %d, want 3500", got)
	}
	if got := r.StageCount(StageConv); got != 4 {
		t.Errorf("StageConv count = %d, want 4", got)
	}
	r.Add(CounterFFTTransforms, 2)
	r.Add(CounterFFTTransforms, 3)
	if got := r.CounterValue(CounterFFTTransforms); got != 5 {
		t.Errorf("fft counter = %d, want 5", got)
	}
	r.Reset()
	if r.StageNs(StageConv) != 0 || r.StageCount(StageConv) != 0 || r.CounterValue(CounterFFTTransforms) != 0 {
		t.Error("Reset left residue")
	}
}

// TestConcurrentIncrementStress hammers one recorder from many goroutines
// — the overlapped force terms situation — and checks the totals are exact. Run
// under -race in tier1.sh, this is also the data-race gate on the slot
// arrays.
func TestConcurrentIncrementStress(t *testing.T) {
	var tick atomic.Int64
	r := NewWithClock(func() int64 { return tick.Add(1) })
	const (
		workers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			stage := Stage(w % int(NumStages))
			ctr := Counter(w % int(NumCounters))
			for i := 0; i < iters; i++ {
				sp := r.Start(stage)
				sp.Stop()
				r.Record(stage, 7)
				r.Add(ctr, 3)
			}
		}()
	}
	wg.Wait()
	var spans, ctrSum int64
	for s := Stage(0); s < NumStages; s++ {
		spans += r.StageCount(s)
	}
	for c := Counter(0); c < NumCounters; c++ {
		ctrSum += r.CounterValue(c)
	}
	if want := int64(workers * iters * 2); spans != want {
		t.Errorf("total span count = %d, want %d", spans, want)
	}
	if want := int64(workers * iters * 3); ctrSum != want {
		t.Errorf("total counter sum = %d, want %d", ctrSum, want)
	}
	// The scripted clock ticks once per Start and once per Stop; every
	// span duration is therefore ≥ 1 tick and the per-stage ns sums must
	// be positive wherever spans were recorded.
	for s := Stage(0); s < NumStages; s++ {
		if r.StageCount(s) > 0 && r.StageNs(s) <= 0 {
			t.Errorf("stage %s recorded %d spans but %d ns", s, r.StageCount(s), r.StageNs(s))
		}
	}
}

// TestEnabledPathAllocs gates the zero-allocation contract of the enabled
// path: Start/Stop/Record/Add with the real monotonic clock must not
// allocate — they run inside //tme:noalloc hot paths.
func TestEnabledPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	r := New()
	allocs := testing.AllocsPerRun(100, func() {
		sp := r.Start(StageShortRange)
		r.Record(StageMesh, 42)
		r.Add(CounterPoolGets, 1)
		sp.Stop()
	})
	if allocs != 0 {
		t.Errorf("enabled-path Start/Record/Add/Stop allocates %.1f per run, want 0", allocs)
	}
	var nilR *Recorder
	allocs = testing.AllocsPerRun(100, func() {
		sp := nilR.Start(StageShortRange)
		nilR.Record(StageMesh, 42)
		nilR.Add(CounterPoolGets, 1)
		sp.Stop()
	})
	if allocs != 0 {
		t.Errorf("disabled-path calls allocate %.1f per run, want 0", allocs)
	}
}

// TestMonotonicClock: the default clock must be non-decreasing and
// strictly positive after package init.
func TestMonotonicClock(t *testing.T) {
	a := monotonicNow()
	b := monotonicNow()
	if a < 0 || b < a {
		t.Errorf("monotonic clock went backwards: %d then %d", a, b)
	}
}

// TestStageAndCounterNames pins the name tables: every preregistered slot
// must have distinct, non-empty chart and JSON names (the report and
// mdserve's metrics JSON key off them).
func TestStageAndCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		if s.String() == "" || s.JSONName() == "" {
			t.Errorf("stage %d has an empty name", s)
		}
		if seen[s.JSONName()] {
			t.Errorf("duplicate stage JSON name %q", s.JSONName())
		}
		seen[s.JSONName()] = true
	}
	for c := Counter(0); c < NumCounters; c++ {
		if c.String() == "" {
			t.Errorf("counter %d has an empty name", c)
		}
		if seen[c.String()] {
			t.Errorf("counter name %q collides", c.String())
		}
		seen[c.String()] = true
	}
	if Stage(200).String() != "unknown" || Stage(200).JSONName() != "unknown" || Counter(200).String() != "unknown" {
		t.Error("out-of-range names must render as unknown")
	}
}

// TestStageTable pins every stage's chart label and JSON name in stage
// order (bench/, the frontier's columns and serve's /metrics read them)
// and the nesting the tuner's cost rows and drift monitor rely on.
func TestStageTable(t *testing.T) {
	want := [NumStages][2]string{
		{"charge assign", "charge_assign"}, {"restrict", "restrict"},
		{"grid conv", "grid_conv"}, {"top SPME", "top_spme"}, {"fft", "fft"},
		{"prolong", "prolong"}, {"back interp", "back_interp"},
		{"mesh total", "mesh_total"}, {"short-range", "short_range"},
		{"neighbor build", "neighbor_build"}, {"bonded", "bonded"},
		{"constraint", "constraint"}, {"force merge", "force_merge"},
		{"overlap window", "overlap_window"}, {"integrate", "integrate"},
		{"step total", "step_total"}, {"ckpt write", "ckpt_write"},
	}
	for s := Stage(0); s < NumStages; s++ {
		if got := [2]string{s.String(), s.JSONName()}; got != want[s] {
			t.Errorf("stage %d named %q, want %q", s, got, want[s])
		}
		if !s.Within(s) {
			t.Errorf("%s not within itself", s)
		}
		if s != StageCheckpoint && !s.Within(StageStep) {
			t.Errorf("%s not within the step total", s)
		}
	}
	for _, s := range []Stage{StageAssign, StageRestrict, StageConv, StageTopSPME, StageFFT, StageProlong, StageInterp} {
		if !s.Within(StageMesh) || s.Within(StageShortRange) {
			t.Errorf("%s: want within the mesh total only", s)
		}
	}
	for _, c := range []struct {
		s, t Stage
		want bool
	}{
		{StageFFT, StageTopSPME, true},
		{StageNeighbor, StageShortRange, true},
		{StageNeighbor, StageMesh, false},
		{StageShortRange, StageNeighbor, false},
		{StageMesh, StageOverlap, true},
		{StageMerge, StageOverlap, false},
		{StageCheckpoint, StageStep, false},
		{Stage(200), StageStep, false},
	} {
		if got := c.s.Within(c.t); got != c.want {
			t.Errorf("%s within %s = %v, want %v", c.s, c.t, got, c.want)
		}
	}
}
