package expt

import (
	"bytes"
	"testing"
)

// TestAutotuneOracle is the brute-force oracle for the auto-tuner: it
// measures the TRUE relative force error and step time of every candidate
// plan on the 512-water box (whose grid-8 spacing reproduces the Table-1
// operating point h = 0.3106 nm exactly), then checks the clock-free half
// of the tuner's contract, at four budgets spanning the Table-1 error
// range:
//
//   - the pick never violates the error budget (measured, not predicted,
//     error),
//   - the error model is conservative: no candidate's measured error
//     exceeds its prediction,
//   - the enumeration produces dozens of candidates to choose among.
//
// How close the pick's step time lands to the true-best candidate's is a
// wall-clock measurement — at rc = 1.0 most candidates step within a few
// percent of each other and the "true best" is whichever the host's jitter
// favoured — so it is logged here and judged by `tmebench -exp autotune`
// (results/autotune.csv), not asserted in the gate.
//
// The Ewald reference forces come from the committed cache, so the test
// costs the equilibration plus one long-range solve and a few timed steps
// per candidate. Skipped in -short mode; runs in full tier-1.
func TestAutotuneOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("autotune oracle measures every candidate plan (~1 min)")
	}
	cfg := QuickAutotune()
	cfg.CacheDir = "../../results/cache"

	var log bytes.Buffer
	rows, verdicts, err := RunAutotune(cfg, &log)
	if err != nil {
		t.Fatalf("RunAutotune: %v", err)
	}
	if len(rows) < 20 {
		t.Errorf("only %d candidates measured; the enumeration should produce dozens", len(rows))
	}
	if len(verdicts) != len(cfg.Budgets) {
		t.Fatalf("%d verdicts for %d budgets", len(verdicts), len(cfg.Budgets))
	}
	for _, r := range rows {
		if r.MeasErr > r.Plan.PredErr {
			t.Errorf("plan %s: measured error %.3e above the predicted %.3e; the error model must be conservative",
				r.Plan.String(), r.MeasErr, r.Plan.PredErr)
		}
	}
	for _, v := range verdicts {
		if !v.MeetBudget {
			t.Errorf("budget %.3g: pick %s has measured error %.3e over budget",
				v.Budget, v.Pick.String(), v.PickErr)
		}
		t.Logf("budget %.3g: pick %s takes %.3f ms, within_frac %.3f of true best %s (%.3f ms)",
			v.Budget, v.Pick.String(), v.PickMs, v.WithinFrac, v.Best.String(), v.BestMs)
	}
	if t.Failed() {
		t.Logf("oracle log:\n%s", log.String())
	}
}
