package expt

import (
	"io"
	"math"
	"testing"

	"tme4a/internal/vec"
)

// TestFig3MatchesPaper: Fig. 3(b)'s qualitative content — the maximum
// relative approximation error drops by more than an order of magnitude
// per added Gaussian and is below 1e-5 by M = 4 (paper shows ~1e-6).
func TestFig3MatchesPaper(t *testing.T) {
	pts := RunFig3(4, 400, 10, io.Discard)
	var prev float64 = math.Inf(1)
	for m := 1; m <= 4; m++ {
		e := MaxErr(pts, m)
		if e >= prev/5 {
			t.Errorf("M=%d: error %g does not drop sharply from %g", m, e, prev)
		}
		prev = e
	}
	if prev > 1e-5 {
		t.Errorf("M=4 max error %g, paper reports ~1e-6", prev)
	}
	// Fig 3(a): even M=1 tracks the shell within a few percent of g(0).
	if e := MaxErr(pts, 1); e > 0.05 {
		t.Errorf("M=1 max error %g, should be a few percent", e)
	}
	// The exact series starts at 1 (normalized) and decays monotonically
	// after its flat head.
	if math.Abs(pts[0].Exact-1) > 1e-12 {
		t.Errorf("normalized shell at r=0 is %g, want 1", pts[0].Exact)
	}
	if pts[len(pts)-1].Exact > 1e-6 {
		t.Errorf("shell has not decayed by x=10: %g", pts[len(pts)-1].Exact)
	}
}

// TestTable1Tiny runs the Table 1 machinery at a deliberately tiny scale
// (512 waters) to validate the plumbing: SPME and converged TME errors in
// the same decade, M=1 clearly worse, gc=12 no worse than gc=4.
func TestTable1Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny Table 1 still costs ~20 s")
	}
	cfg := Table1Config{
		WaterSide:  8,
		GridN:      16,
		RefTol:     1e-10,
		Rcs:        []float64{1.0},
		Gcs:        []int{4, 12},
		Ms:         []int{1, 4},
		EquilSteps: 60,
		Seed:       3,
		CacheDir:   t.TempDir(),
	}
	rows := RunTable1(cfg, io.Discard)
	get := func(method string, gc, m int) float64 {
		for _, r := range rows {
			if r.Method == method && r.Gc == gc && r.M == m {
				return r.Err
			}
		}
		t.Fatalf("row %s gc=%d M=%d missing", method, gc, m)
		return 0
	}
	spmeErr := get("SPME", 0, 0)
	tmeBest := get("TME", 12, 4)
	tmeWorst := get("TME", 4, 1)
	t.Logf("SPME %.3e, TME(gc=12,M=4) %.3e, TME(gc=4,M=1) %.3e", spmeErr, tmeBest, tmeWorst)
	if tmeBest > 4*spmeErr {
		t.Errorf("converged TME error %g not comparable to SPME %g", tmeBest, spmeErr)
	}
	if tmeWorst <= tmeBest {
		t.Errorf("M=1/gc=4 error %g should exceed converged error %g", tmeWorst, tmeBest)
	}
}

// TestTable1CacheRoundTrip: the reference cache must hit on identical
// configurations.
func TestTable1CacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pos := []vec.V{{1, 2, 3}, {4, 5, 6}}
	c := &cachedForces{Pos: pos, Energy: -7, Forces: []vec.V{{0, 0, 1}, {0, 0, -1}}}
	if err := storeCache(dir, "k", c); err != nil {
		t.Fatal(err)
	}
	got, ok := loadCache(dir, "k", pos)
	if !ok {
		t.Fatal("cache miss on identical positions")
	}
	if got.Energy != -7 || got.Forces[1][2] != -1 {
		t.Errorf("cache content corrupted: %+v", got)
	}
	// Different positions must miss.
	pos2 := []vec.V{{1, 2, 3}, {4, 5, 6.0001}}
	if _, ok := loadCache(dir, "k", pos2); ok {
		t.Error("cache hit on different positions")
	}
}

// TestHWExperimentsRun exercises the hardware experiment wrappers.
func TestHWExperimentsRun(t *testing.T) {
	hw := NewHWContext()
	if rep := hw.RunFig9(io.Discard); rep.StepNs <= 0 {
		t.Error("Fig 9 produced no step time")
	}
	lr := hw.RunFig10(io.Discard)
	if lr.Total <= 0 || lr.TMENW <= 0 {
		t.Errorf("Fig 10 breakdown empty: %+v", lr)
	}
	withLR, withoutLR := hw.RunOverlap(io.Discard)
	if withLR <= withoutLR {
		t.Error("long-range must cost something")
	}
	rows := hw.RunTable2(io.Discard)
	if len(rows) != 5 {
		t.Fatalf("Table 2 has %d rows, want 5", len(rows))
	}
	// MDGRAPE-4A sits between the GPU cluster and Anton 1 in throughput.
	if !(rows[1].PerfUsPerDay < rows[2].PerfUsPerDay && rows[2].PerfUsPerDay < rows[3].PerfUsPerDay) {
		t.Errorf("Table 2 ordering wrong: %v", rows)
	}
	if rows[2].FromLiterature {
		t.Error("MDGRAPE-4A row should be simulated, not literature")
	}
	lr32, lr64 := hw.RunGrid64(io.Discard)
	if lr64.Total <= lr32.Total {
		t.Error("64³ long-range must exceed 32³")
	}
}

// TestWhatIfVariants: every Sec. VI.B acceleration must reduce the
// long-range latency relative to the built machine, and the combined
// variant must be the fastest.
func TestWhatIfVariants(t *testing.T) {
	hw := NewHWContext()
	rows := RunWhatIf(hw, io.Discard)
	if len(rows) != 6 {
		t.Fatalf("expected 6 variants, got %d", len(rows))
	}
	baseLR, baseStep := rows[0].LongRangeUs, rows[0].StepUs
	for _, r := range rows[1:] {
		// Each option must improve either the long-range latency or the
		// step time (the GCU-throughput option only shortens the step:
		// the TMENW dominates that segment of the long-range chain).
		if r.LongRangeUs >= baseLR && r.StepUs >= baseStep {
			t.Errorf("%s: LR %.1f µs, step %.1f µs — no improvement over built (%.1f, %.1f)",
				r.Variant, r.LongRangeUs, r.StepUs, baseLR, baseStep)
		}
	}
	last := rows[len(rows)-1]
	for _, r := range rows[:len(rows)-1] {
		if last.LongRangeUs > r.LongRangeUs || last.StepUs > r.StepUs {
			t.Errorf("combined variant (LR %.1f, step %.1f) slower than %s (LR %.1f, step %.1f)",
				last.LongRangeUs, last.StepUs, r.Variant, r.LongRangeUs, r.StepUs)
		}
	}
}
