package expt

import (
	"fmt"
	"io"
	"time"

	"tme4a/internal/ewald"
	"tme4a/internal/md"
	"tme4a/internal/spme"
	"tme4a/internal/tune"
	"tme4a/internal/vec"
)

// AutotuneConfig parameterizes the auto-tuner oracle experiment: measure
// the TRUE relative force error and step time of every candidate plan the
// tuner enumerates on a small water box, then check the tuner's pick per
// error budget against the brute-force best. This is the measuring side
// of internal/tune — it lives here, not there, because the tuner itself
// is a pure model with no clock (the tmevet clock contract).
type AutotuneConfig struct {
	WaterSide  int       // waters per axis (8 → 512 molecules, 1536 atoms)
	RTol       float64   // erfc(α·rc) target shared with the tuner (1e-4)
	RefTol     float64   // reference Ewald error-factor tolerance
	Budgets    []float64 // error budgets to render a verdict for
	MaxGrid    int       // measure candidates up to this grid dim (0 = all)
	Steps      int       // timed steps per repetition
	Reps       int       // repetitions; minimum wins
	EquilSteps int
	Seed       int64
	CacheDir   string
	Dt         float64 // ps
}

// QuickAutotune returns the single-host oracle configuration: a 512-water
// box whose grid-8 spacing h = 0.3106 nm reproduces the Table-1 operating
// point exactly, with four budgets spanning the Table-1 error range.
func QuickAutotune() AutotuneConfig {
	return AutotuneConfig{
		WaterSide:  8,
		RTol:       1e-4,
		RefTol:     1e-12,
		Budgets:    []float64{2e-3, 1e-3, 5e-4, 2e-4},
		MaxGrid:    16,
		Steps:      3,
		Reps:       2,
		EquilSteps: 200,
		Seed:       7,
		CacheDir:   "results/cache",
		Dt:         0.001,
	}
}

// AutotuneRow is one measured candidate: the tuner's predictions next to
// ground truth.
type AutotuneRow struct {
	Plan    tune.Plan
	MeasErr float64 // relative force error vs the Ewald reference
	StepMs  float64 // measured ms per md step (min over reps)
}

// AutotuneVerdict is the oracle's judgement of the tuner at one budget.
type AutotuneVerdict struct {
	Budget     float64
	Pick       tune.Plan
	PickErr    float64 // measured error of the pick
	PickMs     float64 // measured step time of the pick
	Best       tune.Plan
	BestMs     float64 // true-best step time among budget-meeting candidates
	MeetBudget bool    // pick's measured error within the budget
	WithinFrac float64 // PickMs/BestMs − 1
}

// RunAutotune measures every enumerated candidate on the configured box
// and judges the tuner's pick at each budget. Rows and verdicts are
// logged to w as CSV as they are produced.
func RunAutotune(cfg AutotuneConfig, w io.Writer) ([]AutotuneRow, []AutotuneVerdict, error) {
	t1 := Table1Config{
		WaterSide: cfg.WaterSide, GridN: cfg.WaterSide, RTol: cfg.RTol,
		RefTol: cfg.RefTol, EquilSteps: cfg.EquilSteps, Seed: cfg.Seed,
		CacheDir: cfg.CacheDir,
	}
	logf(w, "# Autotune oracle: %d TIP3P waters\n", cfg.WaterSide*cfg.WaterSide*cfg.WaterSide)
	sys := buildWater(t1, w)
	logf(w, "# box %.4f nm, %d atoms\n", sys.Box.L[0], sys.N())
	_, fRef := referenceForces(t1, sys, w)
	start := sys.TakeSnapshot(nil)

	req := tune.Request{Box: sys.Box, Atoms: sys.N(), ErrBudget: cfg.Budgets[0]}
	cands, err := tune.Enumerate(req)
	if err != nil {
		return nil, nil, fmt.Errorf("autotune: enumerate: %w", err)
	}
	var measured []tune.Plan
	skipped := 0
	for _, c := range cands {
		if cfg.MaxGrid > 0 && c.Grid[0] > cfg.MaxGrid {
			skipped++
			continue
		}
		measured = append(measured, c.Plan)
	}
	if skipped > 0 {
		logf(w, "# skipping %d candidates with grid > %d (strictly more mesh work than their measured grid-%d twins)\n",
			skipped, cfg.MaxGrid, cfg.MaxGrid)
	}

	// The short-range term is shared by every candidate at the same
	// cutoff: compute it once per distinct rc, in candidate order.
	var srRc []float64
	var srF [][]vec.V
	shortRange := func(rc float64) []vec.V {
		for i, r := range srRc {
			if r == rc {
				return srF[i]
			}
		}
		f := make([]vec.V, sys.N())
		ewald.RealSpace(sys.Box, sys.Pos, sys.Q, spme.AlphaFromRTol(rc, cfg.RTol), rc, nil, f)
		srRc = append(srRc, rc)
		srF = append(srF, f)
		return f
	}

	logf(w, "method,kernel,rc,grid,gc,M,skin,pred_err,meas_err,pred_ms,step_ms\n")
	var rows []AutotuneRow
	for _, p := range measured {
		row, err := measurePlan(cfg, sys, start, p, shortRange(p.Rc), fRef)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
		logf(w, "%s,%s,%.3g,%d,%d,%d,%.3g,%.3e,%.3e,%.3f,%.3f\n",
			p.Method, p.Kernel, p.Rc, p.Grid[0], p.Gc, p.M, p.Skin,
			p.PredErr, row.MeasErr, p.PredMs, row.StepMs)
	}

	logf(w, "budget,pick,pick_err,pick_ms,best,best_ms,meets_budget,within_frac\n")
	var verdicts []AutotuneVerdict
	for _, budget := range cfg.Budgets {
		r := req
		r.ErrBudget = budget
		pick, err := tune.PlanFor(r)
		if err != nil {
			return nil, nil, fmt.Errorf("autotune: budget %g: %w", budget, err)
		}
		pickRow, err := findOrMeasure(cfg, sys, start, pick, &rows, shortRange, fRef, w)
		if err != nil {
			return nil, nil, err
		}
		v := AutotuneVerdict{
			Budget:  budget,
			Pick:    pick,
			PickErr: pickRow.MeasErr,
			PickMs:  pickRow.StepMs,
		}
		v.MeetBudget = v.PickErr <= budget
		// Brute force: the fastest measured candidate whose TRUE error
		// meets the budget.
		first := true
		for _, row := range rows {
			if row.MeasErr > budget {
				continue
			}
			if first || row.StepMs < v.BestMs {
				v.Best, v.BestMs, first = row.Plan, row.StepMs, false
			}
		}
		if first {
			v.Best, v.BestMs = pickRow.Plan, pickRow.StepMs
		}
		v.WithinFrac = pickRow.StepMs/v.BestMs - 1
		verdicts = append(verdicts, v)
		logf(w, "%.3g,%s,%.3e,%.3f,%s,%.3f,%v,%.3f\n",
			budget, quote(v.Pick.String()), v.PickErr, v.PickMs,
			quote(v.Best.String()), v.BestMs, v.MeetBudget, v.WithinFrac)
	}
	return rows, verdicts, nil
}

func quote(s string) string { return `"` + s + `"` }

// findOrMeasure returns the measured row for a plan, measuring it on the
// spot if the enumeration cap excluded it.
func findOrMeasure(cfg AutotuneConfig, sys *md.System, start *md.Snapshot, p tune.Plan,
	rows *[]AutotuneRow, shortRange func(float64) []vec.V, fRef []vec.V, w io.Writer) (AutotuneRow, error) {
	for _, r := range *rows {
		if r.Plan.String() == p.String() {
			return r, nil
		}
	}
	logf(w, "# pick %s was outside the measured set; measuring it now\n", p.String())
	row, err := measurePlan(cfg, sys, start, p, shortRange(p.Rc), fRef)
	if err == nil {
		*rows = append(*rows, row)
	}
	return row, err
}

// measurePlan computes a candidate's true relative force error (one
// long-range solve against the Ewald reference) and its md step time
// (min over reps of a few steps, after a warmup step that absorbs the
// bootstrap force evaluation and first neighbor-list build).
func measurePlan(cfg AutotuneConfig, sys *md.System, start *md.Snapshot, p tune.Plan,
	fSR []vec.V, fRef []vec.V) (AutotuneRow, error) {
	mesh, err := p.NewSolver(sys.Box)
	if err != nil {
		return AutotuneRow{}, fmt.Errorf("autotune: %s: %w", p.String(), err)
	}
	f := cloneForces(fSR)
	mesh.LongRange(sys.Pos, sys.Q, f)
	row := AutotuneRow{Plan: p, MeasErr: relForceError(f, fRef)}

	best := 0.0
	for rep := 0; rep < cfg.Reps; rep++ {
		if err := sys.Restore(start); err != nil {
			return AutotuneRow{}, fmt.Errorf("autotune: restore: %w", err)
		}
		integ, err := p.NewIntegrator(sys.Box, cfg.Dt)
		if err != nil {
			return AutotuneRow{}, fmt.Errorf("autotune: %s: %w", p.String(), err)
		}
		integ.Step(sys) // warmup: bootstrap Compute + first list build
		t0 := time.Now()
		for s := 0; s < cfg.Steps; s++ {
			integ.Step(sys)
		}
		ms := time.Since(t0).Seconds() * 1e3 / float64(cfg.Steps)
		if rep == 0 || ms < best {
			best = ms
		}
	}
	row.StepMs = best
	if err := sys.Restore(start); err != nil {
		return AutotuneRow{}, fmt.Errorf("autotune: restore: %w", err)
	}
	return row, nil
}
