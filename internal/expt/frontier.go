package expt

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"tme4a/internal/md"
	"tme4a/internal/obs"
	"tme4a/internal/tune"
)

// FrontierConfig parameterizes the measured plan sweep: on each water box,
// every candidate plan the tuner enumerates gets its TRUE relative force
// error and its md step time and in-situ stage times at each GOMAXPROCS,
// next to the tuner's predictions; per error budget, the tuner's pick is
// set beside the cheapest measured plan of each method. This is the
// measuring side of internal/tune — it lives here, not there, because the
// tuner itself is a pure model with no clock (the tmevet clock contract).
type FrontierConfig struct {
	Sides      []int     // waters per axis of each box (6, 8, 10 → 648, 1536, 3000 atoms)
	RefTol     float64   // reference Ewald error-factor tolerance
	Budgets    []float64 // error budgets to render a verdict for
	Steps      int       // timed steps per repetition
	Reps       int       // repetitions; the fastest wins
	EquilSteps int
	Seed       int64
	CacheDir   string
}

// QuickFrontier returns the single-host sweep: the boxes of the
// benchmark's serve-mix, sr-verlet and mesh-fine workloads (the 512-water
// one's grid-8 spacing h = 0.3106 nm reproduces the Table-1 operating
// point exactly) and four budgets spanning the Table-1 error range.
func QuickFrontier() FrontierConfig {
	return FrontierConfig{
		Sides:      []int{6, 8, 10},
		RefTol:     1e-12,
		Budgets:    []float64{2e-3, 1e-3, 5e-4, 2e-4},
		Steps:      3,
		Reps:       2,
		EquilSteps: 200,
		Seed:       7,
		CacheDir:   "results/cache",
	}
}

// frontierProcs are the GOMAXPROCS values step and stage times are
// measured at: serial, and the two-worker operating point of the
// benchmark's workloads.
var frontierProcs = [...]int{1, 2}

// FrontierRow is one measured candidate on one box at one GOMAXPROCS.
type FrontierRow struct {
	Side, Atoms, Procs int
	Plan               tune.Plan
	MeasErr            float64                  // relative force error vs the Ewald reference
	StepMs             float64                  // ms per md step, fastest rep
	StageMs            [obs.NumStages]float64   // in-situ ms per step, fastest rep
	PerStep            [obs.NumCounters]float64 // counter increments per step, fastest rep
}

// frontierMethods are the methods a verdict names a cheapest plan for.
var frontierMethods = [...]string{"spme", "tme", "msm"}

// FrontierVerdict judges the tuner at one (box, GOMAXPROCS, budget).
type FrontierVerdict struct {
	Budget      float64
	Pick        FrontierRow
	MeetsBudget bool // the pick's measured error is within the budget
	// Best holds, per frontierMethods entry, the fastest measured plan of
	// that method whose measured error meets the budget (zero Plan if none).
	Best [len(frontierMethods)]FrontierRow
}

// RunFrontier measures every enumerated candidate on each configured box
// and judges the tuner's pick at each budget. It writes a provenance
// header, the rows as CSV as they are produced, then the per-budget
// section.
func RunFrontier(cfg FrontierConfig, w io.Writer) ([]FrontierRow, []FrontierVerdict, error) {
	writeProvenance(w)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cols := []string{"side", "atoms", "gomaxprocs", "method", "kernel", "rc", "grid", "gc", "M", "skin",
		"pred_err", "meas_err", "pred_ms", "step_ms"}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		cols = append(cols, s.JSONName()+"_ms")
	}
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		cols = append(cols, c.String()+"_per_step")
	}
	logf(w, "# stage columns are in-situ ms per step; counter columns are increments per step\n")
	logf(w, "%s\n", strings.Join(cols, ","))

	var rows []FrontierRow
	var verdicts []FrontierVerdict
	for _, side := range cfg.Sides {
		r, v, err := frontierBox(cfg, side, w)
		if err != nil {
			return nil, nil, err
		}
		rows, verdicts = append(rows, r...), append(verdicts, v...)
	}

	cols = []string{"side", "gomaxprocs", "budget", "pick", "pick_pred_err", "pick_meas_err", "pick_step_ms", "meets_budget"}
	for _, m := range frontierMethods {
		cols = append(cols, "best_"+m, "best_"+m+"_meas_err", "best_"+m+"_step_ms")
	}
	logf(w, "# per budget: the tuner's pick and the cheapest plan of each method meeting the budget by measured error\n")
	logf(w, "%s\n", strings.Join(cols, ","))
	for _, v := range verdicts {
		p := v.Pick
		logf(w, "%d,%d,%.3g,%q,%.3e,%.3e,%.3f,%v", p.Side, p.Procs, v.Budget, p.Plan.String(),
			p.Plan.PredErr, p.MeasErr, p.StepMs, v.MeetsBudget)
		for _, b := range v.Best {
			if b.Plan.Method == "" {
				logf(w, ",,,")
				continue
			}
			logf(w, ",%q,%.3e,%.3f", b.Plan.String(), b.MeasErr, b.StepMs)
		}
		logf(w, "\n")
	}
	return rows, verdicts, nil
}

// frontierBox measures one box: every candidate's error once (it is
// bitwise the same at any GOMAXPROCS), then every candidate's step and
// stage times and the verdicts at each of frontierProcs.
func frontierBox(cfg FrontierConfig, side int, w io.Writer) ([]FrontierRow, []FrontierVerdict, error) {
	t1 := Table1Config{
		WaterSide: side, GridN: side, RefTol: cfg.RefTol, EquilSteps: cfg.EquilSteps, Seed: cfg.Seed,
		CacheDir: cfg.CacheDir,
	}
	logf(w, "# %d TIP3P waters\n", side*side*side)
	sys := buildWater(t1, w)
	logf(w, "# box %.4f nm, %d atoms\n", sys.Box.L[0], sys.N())
	_, fRef := referenceForces(t1, sys, w)
	start := sys.TakeSnapshot(nil)

	req := tune.Request{Box: sys.Box, Atoms: sys.N(), ErrBudget: cfg.Budgets[0]}
	cands, err := tune.Enumerate(req)
	if err != nil {
		return nil, nil, fmt.Errorf("frontier: side %d: enumerate: %w", side, err)
	}

	plans := make([]tune.Plan, len(cands))
	for i, c := range cands {
		plans[i] = c.Plan
	}
	measErr, err := planErrors(sys, fRef, plans)
	if err != nil {
		return nil, nil, fmt.Errorf("frontier: %w", err)
	}

	var rows []FrontierRow
	var verdicts []FrontierVerdict
	for _, procs := range frontierProcs {
		runtime.GOMAXPROCS(procs)
		for i, c := range cands {
			row := FrontierRow{Side: side, Atoms: sys.N(), Procs: procs, Plan: c.Plan, MeasErr: measErr[i]}
			if err := measurePlan(cfg, sys, start, &row); err != nil {
				return nil, nil, err
			}
			rows = append(rows, row)
			p := c.Plan
			logf(w, "%d,%d,%d,%s,%s,%.4g,%d,%d,%d,%.3g,%.3e,%.3e,%.3f,%.3f", side, row.Atoms, procs,
				p.Method, p.Kernel, p.Rc, p.Grid[0], p.Gc, p.M, p.Skin, p.PredErr, row.MeasErr, p.PredMs, row.StepMs)
			for _, ms := range row.StageMs {
				logf(w, ",%.4f", ms)
			}
			for _, v := range row.PerStep {
				logf(w, ",%.6g", v)
			}
			logf(w, "\n")
		}
		for _, budget := range cfg.Budgets {
			r := req
			r.ErrBudget = budget
			pick, err := tune.PlanFor(r)
			if err != nil {
				return nil, nil, fmt.Errorf("frontier: side %d, budget %g: %w", side, budget, err)
			}
			v := FrontierVerdict{Budget: budget}
			for _, row := range rows[len(rows)-len(cands):] {
				if row.Plan == pick {
					v.Pick = row
				}
				for k, m := range frontierMethods {
					if row.Plan.Method == m && row.MeasErr <= budget &&
						(v.Best[k].Plan.Method == "" || row.StepMs < v.Best[k].StepMs) {
						v.Best[k] = row
					}
				}
			}
			if v.Pick.Plan != pick {
				return nil, nil, fmt.Errorf("frontier: side %d: pick %s is not an enumerated candidate", side, pick.String())
			}
			v.MeetsBudget = v.Pick.MeasErr <= budget
			verdicts = append(verdicts, v)
		}
	}
	return rows, verdicts, nil
}

// measurePlan measures a candidate's md step time at the current
// GOMAXPROCS (min over reps of a few steps, after a warmup step that
// absorbs the bootstrap force evaluation and first neighbor-list build),
// and the stage times and counters of the fastest rep from a recorder
// attached after the warmup.
func measurePlan(cfg FrontierConfig, sys *md.System, start *md.Snapshot, row *FrontierRow) error {
	p := row.Plan
	for rep := 0; rep < cfg.Reps; rep++ {
		if err := sys.Restore(start); err != nil {
			return fmt.Errorf("frontier: restore: %w", err)
		}
		integ, err := p.NewIntegrator(sys.Box, dt)
		if err != nil {
			return fmt.Errorf("frontier: %s: %w", p.String(), err)
		}
		integ.Step(sys) // warmup: bootstrap Compute + first list build
		rec := obs.New()
		integ.SetObs(rec)
		t0 := time.Now()
		for s := 0; s < cfg.Steps; s++ {
			integ.Step(sys)
		}
		ms := time.Since(t0).Seconds() * 1e3 / float64(cfg.Steps)
		if rep > 0 && ms >= row.StepMs {
			continue
		}
		row.StepMs = ms
		for s := range row.StageMs {
			row.StageMs[s] = float64(rec.StageNs(obs.Stage(s))) * 1e-6 / float64(cfg.Steps)
		}
		for c := range row.PerStep {
			row.PerStep[c] = float64(rec.CounterValue(obs.Counter(c))) / float64(cfg.Steps)
		}
	}
	return nil
}

// writeProvenance writes the header a measured results file carries: the
// commit the binary was built from (`go run` and test binaries stamp
// none, so only a `go build` binary names one), the host, the Go
// version, the date and the command.
func writeProvenance(w io.Writer) {
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	args := append([]string{filepath.Base(os.Args[0])}, os.Args[1:]...)
	logf(w, "# commit %s vcs.modified=%s\n", rev, modified)
	logf(w, "# host %s/%s, %d CPUs, %s\n", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
	logf(w, "# date %s\n", time.Now().UTC().Format(time.RFC3339))
	logf(w, "# command %s\n", strings.Join(args, " "))
}
