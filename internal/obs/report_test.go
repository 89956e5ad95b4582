package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
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

// TestReportJSONRoundTrip: WriteJSON output must decode back to the same
// report (the BENCH_obs.json contract) and carry the stable schema keys.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := goldenRecorder().Report("golden", 648, 1)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"label"`, `"stages"`, `"stage": "short_range"`, `"mean_step_ns"`, `"share_of_step"`, `"counter": "mesh_solves"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("JSON output missing %s:\n%s", key, buf.String())
		}
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("round trip changed the report:\n%+v\nvs\n%+v", rep, back)
	}
	// Byte-determinism: encoding the same report twice is identical.
	var buf2 bytes.Buffer
	if err := rep.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteJSON is not byte-deterministic")
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
