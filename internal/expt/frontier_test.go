package expt

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sideEight runs the measured plan sweep once per test binary on the
// 512-water box (whose grid-8 spacing reproduces the Table-1 operating
// point h = 0.3106 nm exactly) at GOMAXPROCS 1 and 2, for the three tests
// below. The other benchmark boxes and the grid-32 and -64 candidates are
// recorded by `tmebench -exp frontier` (results/frontier.csv), not
// asserted. Timings are not judged, so one timed step per candidate
// suffices. The Ewald reference forces come from the committed cache.
// Skipped in -short mode; runs in full tier-1.
var sideEight struct {
	once     sync.Once
	cfg      FrontierConfig
	rows     []FrontierRow
	verdicts []FrontierVerdict
	log      string
	err      error
}

func frontierSideEight(t *testing.T) (cfg FrontierConfig, rows []FrontierRow, verdicts []FrontierVerdict, log string) {
	t.Helper()
	if testing.Short() {
		t.Skip("the frontier measures every candidate plan (~15 s)")
	}
	f := &sideEight
	f.once.Do(func() {
		f.cfg = QuickFrontier()
		f.cfg.Sides = []int{8}
		f.cfg.Steps, f.cfg.Reps = 1, 1
		f.cfg.CacheDir = "../../results/cache"
		var buf bytes.Buffer
		f.rows, f.verdicts, f.err = RunFrontier(f.cfg, &buf)
		f.log = buf.String()
	})
	if f.err != nil {
		t.Fatalf("RunFrontier: %v", f.err)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("frontier log:\n%s", f.log)
		}
	})
	return f.cfg, f.rows, f.verdicts, f.log
}

// TestAutotuneOracle holds the tuner's contract on the side-8 frontier's
// grid ≤ 16 candidates, at four budgets spanning the Table-1 error range:
// the enumeration offers dozens of candidates, the error model is
// conservative there (no measured error above its prediction), and the
// pick never violates its budget by measured error.
func TestAutotuneOracle(t *testing.T) {
	_, rows, verdicts, _ := frontierSideEight(t)
	// Errors do not depend on GOMAXPROCS; the procs-1 rows stand for both.
	n := 0
	for _, r := range rows {
		if r.Procs != 1 || r.Plan.Grid[0] > 16 {
			continue
		}
		n++
		if r.MeasErr > r.Plan.PredErr {
			t.Errorf("plan %s: measured error %.3e above the predicted %.3e; the error model must be conservative",
				r.Plan.String(), r.MeasErr, r.Plan.PredErr)
		}
	}
	if n < 20 {
		t.Errorf("only %d grid ≤ 16 candidates measured; the enumeration should produce dozens", n)
	}
	for _, v := range verdicts {
		if !v.MeetsBudget {
			t.Errorf("budget %.3g: pick %s has measured error %.3e over budget",
				v.Budget, v.Pick.Plan.String(), v.Pick.MeasErr)
		}
	}
}

// TestShootoutTiny compares the kernel families on the side-8 frontier at
// the Table-1 operating point rc = 1.0, grid 16, g_c = 8: both converge
// with M, converged TME is comparable to SPME, and u-series tracks gauss.
func TestShootoutTiny(t *testing.T) {
	_, rows, _, _ := frontierSideEight(t)
	get := func(method, kernel string, gc, m int) float64 {
		for _, r := range rows {
			p := r.Plan
			if r.Procs == 1 && p.Method == method && p.Kernel == kernel && p.Rc == 1 &&
				p.Grid[0] == 16 && p.Gc == gc && p.M == m {
				return r.MeasErr
			}
		}
		t.Fatalf("row %s/%s rc=1 grid=16 gc=%d M=%d missing", method, kernel, gc, m)
		return 0
	}
	spmeErr := get("spme", "", 0, 0)
	for _, kernel := range []string{"gauss", "useries"} {
		worst, best := get("tme", kernel, 8, 1), get("tme", kernel, 8, 3)
		t.Logf("%s: M=1 %.3e, M=3 %.3e (spme %.3e)", kernel, worst, best, spmeErr)
		if best >= worst {
			t.Errorf("%s: M=3 error %g did not improve on M=1 %g", kernel, best, worst)
		}
		if best > 4*spmeErr {
			t.Errorf("%s: converged error %g not comparable to SPME %g", kernel, best, spmeErr)
		}
	}
	if u, g := get("tme", "useries", 8, 3), get("tme", "gauss", 8, 3); u > g*1.15 {
		t.Errorf("converged useries error %g not within 15%% of gauss %g", u, g)
	}
}

// TestFrontier checks the side-8 frontier's CSV: every row has the
// header's field count, the step stage is recorded at both GOMAXPROCS,
// and the per-budget section has one row per (GOMAXPROCS, budget).
func TestFrontier(t *testing.T) {
	cfg, rows, verdicts, log := frontierSideEight(t)

	// A row section and a per-budget section, each under its own header.
	var sections [][][]string
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if fields[0] == "side" {
			sections = append(sections, [][]string{fields})
			continue
		}
		if len(sections) == 0 {
			t.Fatalf("data line before any header: %q", line)
		}
		s := &sections[len(sections)-1]
		*s = append(*s, fields)
	}
	if len(sections) != 2 {
		t.Fatalf("%d CSV sections, want rows and budgets", len(sections))
	}
	for _, s := range sections {
		for _, fields := range s[1:] {
			if len(fields) != len(s[0]) {
				t.Errorf("%d fields under a %d-field header: %v", len(fields), len(s[0]), fields)
			}
		}
	}
	col := func(header []string, name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("no %s column in %v", name, header)
		return 0
	}
	body := sections[0]
	procsCol, stepCol := col(body[0], "gomaxprocs"), col(body[0], "step_total_ms")
	perProcs := map[string]int{}
	for _, fields := range body[1:] {
		perProcs[fields[procsCol]]++
		if ms, err := strconv.ParseFloat(fields[stepCol], 64); err != nil || ms <= 0 {
			t.Errorf("GOMAXPROCS %s: step stage %q is not a positive time", fields[procsCol], fields[stepCol])
		}
	}
	if perProcs["1"] != len(rows)/2 || perProcs["2"] != len(rows)/2 {
		t.Errorf("rows per GOMAXPROCS %v, want %d each", perProcs, len(rows)/2)
	}
	if got, want := len(sections[1])-1, len(frontierProcs)*len(cfg.Budgets); got != want || len(verdicts) != want {
		t.Errorf("%d budget rows and %d verdicts, want one per (GOMAXPROCS, budget) = %d", got, len(verdicts), want)
	}
}
