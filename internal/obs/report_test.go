package obs

import (
	"bytes"
	"strings"
	"testing"
)

// goldenRecorder replays a fixed two-step scenario through a scripted
// clock, so report output is byte-reproducible.
func goldenRecorder() *Recorder {
	var now int64
	r := NewWithClock(func() int64 { return now })
	for i := 0; i < 2; i++ {
		step := r.Start(StageStep)
		sp := r.Start(StageAssign)
		now += 100_000
		sp.Stop()
		sp = r.Start(StageTopSPME)
		now += 300_000
		sp.Stop()
		sp = r.Start(StageShortRange)
		now += 400_000
		sp.Stop()
		now += 200_000 // unattributed remainder of the step
		step.Stop()
		r.Add(CounterMeshSolves, 1)
		r.Add(CounterPoolGets, 2)
		r.Add(CounterPairsEvaluated, 10_000)
	}
	return r
}

// TestReportRenderGolden pins the Fig 9-style chart format byte for byte.
func TestReportRenderGolden(t *testing.T) {
	rep := goldenRecorder().Report("golden", 648, 1)
	var buf bytes.Buffer
	rep.Render(&buf, 40)
	want := strings.Join([]string{
		"# golden: per-stage machine time, 648 atoms, 2 steps, GOMAXPROCS=1",
		"charge assign |####                                    |  10.0%     100.0 us/step  (2 spans)",
		"top SPME      |############                            |  30.0%     300.0 us/step  (2 spans)",
		"short-range   |################                        |  40.0%     400.0 us/step  (2 spans)  40.0 ns/evaluated pair",
		"step total    |########################################| 100.0%      1.00 ms/step  (2 spans)",
		"# counters",
		"mesh_solves     2",
		"pool_gets       4",
		"pairs_evaluated 20000",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("golden chart mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestReportStats pins the computed statistics of the golden scenario.
func TestReportStats(t *testing.T) {
	rep := goldenRecorder().Report("golden", 648, 1)
	if rep.Steps != 2 || rep.Atoms != 648 || rep.GOMAXPROCS != 1 {
		t.Fatalf("header fields wrong: %+v", rep)
	}
	sr, ok := rep.StageStatByName("short_range")
	if !ok {
		t.Fatal("short_range stage missing")
	}
	if sr.TotalNs != 800_000 || sr.Count != 2 || sr.MeanStepNs != 400_000 {
		t.Errorf("short_range stats wrong: %+v", sr)
	}
	if sr.Share < 0.399 || sr.Share > 0.401 {
		t.Errorf("short_range share = %g, want 0.4", sr.Share)
	}
	if _, ok := rep.StageStatByName("bonded"); ok {
		t.Error("unrecorded stage must not appear in the report")
	}
	st, _ := rep.StageStatByName("step_total")
	if st.Share != 1 {
		t.Errorf("step_total share = %g, want 1", st.Share)
	}
}

// TestReportWithoutStepStage: a recorder used outside Integrator.Step
// (solver-only runs) must scale shares to the largest stage.
func TestReportWithoutStepStage(t *testing.T) {
	var now int64
	r := NewWithClock(func() int64 { return now })
	sp := r.Start(StageConv)
	now += 600
	sp.Stop()
	sp = r.Start(StageProlong)
	now += 300
	sp.Stop()
	rep := r.Report("solver", 0, 1)
	conv, _ := rep.StageStatByName("grid_conv")
	pro, _ := rep.StageStatByName("prolong")
	if conv.Share != 1 {
		t.Errorf("largest stage share = %g, want 1", conv.Share)
	}
	if pro.Share != 0.5 {
		t.Errorf("prolong share = %g, want 0.5", pro.Share)
	}
}
