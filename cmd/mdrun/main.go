// Command mdrun runs molecular dynamics of TIP3P water with a selectable
// long-range electrostatics method:
//
//	mdrun -side 10 -steps 500 -method tme -rc 1.0 -grid 16 -M 3 -gc 8
//
// Methods: cutoff (erfc-screened short range only) plus every method in
// solver's table (msm, spme, tme). TME additionally selects its
// middle-range kernel family with -kernel (gauss|useries). With -in, a
// checkpoint image written by watergen (watergen -o water.tme) is used
// instead of building a fresh box.
//
// Crash-consistent checkpointing (see DESIGN.md §7.5):
//
//	mdrun -side 10 -steps 5000 -checkpoint-dir ck -checkpoint-every 500
//	mdrun -side 10 -steps 5000 -checkpoint-dir ck -resume
//
// The second invocation scans ck, rejects anything torn or corrupt by
// CRC, restores from the newest valid checkpoint and continues the
// trajectory bitwise-identically to an uninterrupted run (NVE or
// Berendsen; the stochastic CSVR thermostat resumes from the same state
// but draws fresh noise). -steps is the total trajectory length, so the
// resumed run performs only the remaining steps.
//
// A serial run starts, steps, checkpoints and re-plans through tune.Run,
// the one sequence mdserve's jobs share; a step that panics exits 1 with
// "mdrun: step N: ...".
//
// Auto-tuning (see DESIGN.md §7.10):
//
//	mdrun -side 10 -steps 500 -tune -errbudget 1e-3
//	mdrun -side 10 -steps 5000 -tune -errbudget 1e-3 -retune \
//	      -checkpoint-dir ck -checkpoint-every 500
//
// -tune replaces the manual solver flags with the internal/tune plan:
// the cheapest enumerated method/kernel/cutoff/grid configuration whose
// predicted relative force error meets -errbudget. -retune additionally
// watches live per-stage timings and, when they drift off the cost
// model at a checkpoint boundary, switches to a re-planned
// configuration — bitwise identically to restarting from that
// checkpoint under the new plan.
//
// Rank-decomposed execution (see DESIGN.md §7.9):
//
//	mdrun -ranks 4 -side 6 -rc 0.3 -grid 32 -M 2 -gc 4 -steps 100
//
// -ranks N steps the same NVE trajectory through internal/rank — N
// domain-owning workers exchanging halos over typed channels — bitwise
// identical to -ranks 1 and to the serial integrator. Rank mode is NVE
// only (cutoff or tme) and excludes -nvt, -resume and checkpointing.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"tme4a/internal/ckpt"
	"tme4a/internal/md"
	"tme4a/internal/obs"
	"tme4a/internal/rank"
	"tme4a/internal/solver"
	"tme4a/internal/tune"
	"tme4a/internal/water"
)

var (
	side    = flag.Int("side", 10, "waters per box edge when building fresh")
	in      = flag.String("in", "", "checkpoint image from watergen, e.g. water.tme (optional)")
	steps   = flag.Int("steps", 200, "total MD steps (1 fs); a resumed run does the remainder")
	method  = flag.String("method", "tme", "long-range method: cutoff|"+strings.Join(solver.Names(), "|"))
	kernel  = flag.String("kernel", "", "TME middle-range kernel family: gauss|useries (default gauss)")
	rc      = flag.Float64("rc", 1.0, "short-range cutoff (nm)")
	gridN   = flag.Int("grid", 16, "mesh points per axis")
	m       = flag.Int("M", 3, "TME Gaussians per shell")
	gc      = flag.Int("gc", 8, "grid kernel cutoff")
	levels  = flag.Int("L", 1, "TME/MSM middle levels")
	temp    = flag.Float64("T", 300, "initial temperature (K)")
	nvt     = flag.Bool("nvt", false, "couple a Berendsen thermostat")
	every   = flag.Int("report", 20, "report interval (steps)")
	seed    = flag.Int64("seed", 1, "random seed")
	obsOn   = flag.Bool("obs", false, "record per-stage timings and print the breakdown at the end")
	ckDir   = flag.String("checkpoint-dir", "", "directory for crash-consistent checkpoints (with -checkpoint-every or -resume)")
	ckEvery = flag.Int("checkpoint-every", 0, "checkpoint cadence in steps (0 = off)")
	ckKeep  = flag.Int("checkpoint-keep", 3, "checkpoints retained (keep-last-K)")
	resume  = flag.Bool("resume", false, "restore from the newest valid checkpoint in -checkpoint-dir")
	ranks   = flag.Int("ranks", 0, "rank-decomposed run with N domain workers (0 = serial; NVE, cutoff|tme only)")
	tuneOn  = flag.Bool("tune", false, "auto-tune: pick method/kernel/rc/grid/gc/M for -errbudget, ignoring the manual solver flags")
	budget  = flag.Float64("errbudget", 1e-3, "relative force-error budget for -tune")
	retune  = flag.Bool("retune", false, "with -tune and checkpointing: re-plan at checkpoint boundaries when stage timings drift off the cost model")
)

func main() {
	flag.Parse()
	if err := checkFlags(); err != nil {
		fatalf("%v", err)
	}

	// Auto-tuning resolves the plan before anything else: it is a pure
	// function of (box, atoms, budget), so a resume from the same flags
	// recomputes it identically, and its values flow into the config hash
	// exactly like hand-picked ones.
	plan, tuneReq, err := flagPlan()
	if err != nil {
		fatalf("tune: %v", err)
	}
	if *tuneOn {
		fmt.Printf("tuned plan: %s\n", plan.String())
	}
	run := &tune.Run{
		Plan: plan, Dt: 0.001, Dir: *ckDir, Keep: *ckKeep, Hash: ckpt.ConfigHash(configString(plan)),
		Every: *ckEvery, Resume: *resume, Fresh: freshState, Log: os.Stdout,
	}
	if *resume {
		run.Fresh = nil // -resume never starts fresh: an empty directory is an error
	}
	if *obsOn || *retune {
		// The retune monitor feeds on live stage timings, so -retune
		// records them even without -obs.
		run.Rec = obs.New()
	}
	if *retune {
		run.Monitor = tune.NewMonitor(tuneReq, plan)
	}
	if err := run.Start(); err != nil {
		fatalf("%v", err)
	}
	plan, sys, ff, rec := run.Plan, run.Sys, run.Integ.FF, run.Rec
	if s, ok := ff.Mesh.(solver.Solver); ok {
		fmt.Println(s.Describe())
	}

	if *ranks > 0 {
		eng, err := rank.New(rank.Config{Ranks: *ranks}, sys, ff, 0.001)
		if err != nil {
			fatalf("%v", err)
		}
		defer eng.Close()
		if rec != nil {
			eng.SetObs(rec)
		}
		fmt.Printf("%d atoms over %d ranks, method %s, rc %.2f nm, α %.3f nm⁻¹\n",
			sys.N(), *ranks, plan.Method, plan.Rc, ff.Alpha)
		n := 0
		runTable(sys, func() (md.Energies, error) {
			n++
			e, err := eng.Step()
			if err != nil {
				err = fmt.Errorf("step %d: %w", n, err)
			}
			return e, err
		}, 0, *steps, *every, func() {})
		if b := eng.CommBytes(); *steps > 0 {
			fmt.Printf("protocol traffic: %d bytes total, %d bytes/step\n", b, b/int64(*steps))
		}
		renderObs(rec, fmt.Sprintf("%s-ranks%d", plan.Method, *ranks), sys.N())
		return
	}

	if *nvt {
		run.Integ.Thermostat = &md.Thermostat{T: *temp, Tau: 0.1}
	}
	if run.Done >= *steps {
		fmt.Printf("trajectory already at step %d of %d; nothing to do\n", run.Done, *steps)
		return
	}
	fmt.Printf("%d atoms, method %s, rc %.2f nm, α %.3f nm⁻¹, grid %d³\n",
		sys.N(), plan.Method, plan.Rc, ff.Alpha, plan.Grid[0])
	// Each step ends at the run's checkpoint boundary: a save at the
	// cadence and, with -retune, the drift monitor behind it.
	runTable(sys, run.Step, run.Done, *steps-run.Done, *every, func() {
		replanned, err := run.Checkpoint()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdrun: %v\n", err)
		}
		if replanned {
			fmt.Printf("%8d retune: %s\n", run.Done, run.Plan.String())
		}
	})
	renderObs(rec, plan.Method, sys.N())
}

// freshState builds the starting system of a run that does not resume:
// the -in image under a -T velocity draw, or a fresh -side box.
func freshState() (*md.System, map[string]int64, error) {
	if *in == "" {
		// The box is thermalised at 300 K whatever -T says; -T sets the
		// velocity draw.
		sys := water.Fresh(*side, *seed, 200, 0.001, 300, 0)
		water.Draw(sys, *temp, *seed)
		return sys, water.Meta(*side, *seed), nil
	}
	data, err := os.ReadFile(*in)
	var c *ckpt.Checkpoint
	if err == nil {
		c, err = ckpt.Decode(data)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("loading %s: %w", *in, err)
	}
	sys, err := water.Rebuild(c.Snap)
	if err == nil {
		err = sys.Restore(c.Snap)
	}
	if err != nil {
		return nil, nil, err
	}
	water.Draw(sys, *temp, *seed)
	return sys, c.Snap.Meta, nil
}

// flagPlan resolves the solver flags into the run's plan: under -tune the
// tuner's pick for the -side box and -errbudget, with the request it was
// made from (the manual solver flags are ignored); otherwise the flags as
// given, at the tuner's spline order.
func flagPlan() (tune.Plan, tune.Request, error) {
	if !*tuneOn {
		return tune.Plan{
			Method: *method, Kernel: *kernel, Rc: *rc, Grid: [3]int{*gridN, *gridN, *gridN},
			Gc: *gc, M: *m, Levels: *levels, Order: tune.Order,
		}, tune.Request{}, nil
	}
	nmol := *side * *side * *side
	req := tune.Request{Box: water.CubicBoxFor(nmol), Atoms: 3 * nmol, ErrBudget: *budget}
	plan, err := tune.PlanFor(req)
	return plan, req, err
}

// configString renders everything that shapes the trajectory of a run
// with the flags and plan; its hash keys the checkpoint store, so a
// checkpoint from a run with different parameters is refused.
func configString(p tune.Plan) string {
	levels := p.Levels
	if *tuneOn {
		levels = max(levels, 1) // an SPME plan has none; tuned runs record 1
	}
	s := fmt.Sprintf(
		"mdrun in=%q side=%d method=%s kernel=%s rc=%g grid=%d M=%d gc=%d L=%d T=%g nvt=%t seed=%d dt=0.001",
		*in, *side, p.Method, p.Kernel, p.Rc, p.Grid[0], p.M, p.Gc, levels, *temp, *nvt, *seed)
	if *tuneOn {
		// A tuned run's trajectory additionally depends on the skin and —
		// through possible mid-run retunes — on the budget; untuned runs
		// keep the historical string so their checkpoints stay valid.
		s += fmt.Sprintf(" tune=true errbudget=%g skin=%g retune=%t", *budget, p.Skin, *retune)
	}
	return s
}

// runTable advances the trajectory n steps from absolute step start through
// step, either engine's, whose error names its step; it prints the energy
// table at the report cadence (and after the first step) and calls after.
func runTable(sys *md.System, step func() (md.Energies, error), start, n, every int, after func()) {
	fmt.Printf("%8s %14s %14s %14s %8s\n", "step", "potential", "kinetic", "total", "T(K)")
	for s := 1; s <= n; s++ {
		e, err := step()
		if err != nil {
			fatalf("%v", err)
		}
		if abs := start + s; abs%every == 0 || s == 1 {
			fmt.Printf("%8d %14.3f %14.3f %14.3f %8.1f\n",
				abs, e.Potential(), e.Kinetic, e.Total(), sys.Temperature())
		}
		after()
	}
}

// renderObs prints the per-stage timing chart of an -obs run.
func renderObs(rec *obs.Recorder, label string, atoms int) {
	if !*obsOn {
		return
	}
	fmt.Println()
	rec.Report(label, atoms, runtime.GOMAXPROCS(0)).Render(os.Stdout, 60)
}

// checkFlags rejects flag values and combinations mdrun cannot run.
func checkFlags() error {
	switch {
	case *side < 1:
		return fmt.Errorf("-side %d: want at least 1 water per box edge", *side)
	case *every < 1:
		return fmt.Errorf("-report %d: want a report interval of at least 1 step", *every)
	case math.IsNaN(*temp) || math.IsInf(*temp, 0) || *temp <= 0:
		return fmt.Errorf("-T %g: want a finite, positive temperature (K)", *temp)
	case *ckEvery < 0:
		return fmt.Errorf("-checkpoint-every %d: want a cadence of at least 1 step, or 0 for none", *ckEvery)
	case *ckKeep < 1:
		return fmt.Errorf("-checkpoint-keep %d: want at least 1 checkpoint retained", *ckKeep)
	case *tuneOn && *in != "":
		return fmt.Errorf("-tune plans from -side; it does not combine with -in")
	case *tuneOn && *ranks > 0:
		return fmt.Errorf("-tune does not combine with -ranks")
	case *retune && !*tuneOn:
		return fmt.Errorf("-retune requires -tune")
	case *retune && (*ckDir == "" || *ckEvery <= 0):
		return fmt.Errorf("-retune re-plans at checkpoint boundaries; set -checkpoint-dir and -checkpoint-every")
	case *retune && *nvt:
		return fmt.Errorf("-retune is NVE only; drop -nvt")
	case *ranks > 0 && *nvt:
		return fmt.Errorf("-ranks is NVE only; drop -nvt")
	case *ranks > 0 && (*resume || *ckDir != "" || *ckEvery > 0):
		return fmt.Errorf("-ranks does not support checkpointing or -resume")
	case (*ckEvery > 0 || *resume) != (*ckDir != ""):
		return fmt.Errorf("-checkpoint-dir %q: a checkpoint directory goes with -checkpoint-every (to write it) or -resume (to read it)", *ckDir)
	}
	return nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mdrun: "+format+"\n", args...)
	os.Exit(1)
}
