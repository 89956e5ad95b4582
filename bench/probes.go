package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"tme4a/internal/celllist"
	"tme4a/internal/ckpt"
	"tme4a/internal/core"
	"tme4a/internal/dist"
	"tme4a/internal/ewald"
	"tme4a/internal/fft"
	"tme4a/internal/grid"
	"tme4a/internal/md"
	"tme4a/internal/nonbond"
	"tme4a/internal/obs"
	"tme4a/internal/par"
	"tme4a/internal/rank"
	"tme4a/internal/serve"
	"tme4a/internal/solver"
	"tme4a/internal/tune"
	"tme4a/internal/vec"
)

// The traced pass measures every layer from outside, on the warmed-up state
// and parameters of the workload: it calls the layer's public functions
// itself, each call inside one of its own spans. A layer the workload's
// timed loop does not use (the rank engine, the daemon on a solo workload)
// is still probed on the workload's system, so every
// name carries a value on every workload; what that value can move is in
// the README's layer table.

// tracedPass runs the per-layer pass of a workload whose system is w and
// whose served traffic is fleet (deliveredClass names the class that
// serve.delivered_step_ms_p50 reads).
func tracedPass(w solo, fleet []fleetJob, deliveredClass string, seed int64, sc scale, outdir string, log io.Writer) (result, error) {
	o := &ops{}
	vals := map[string]float64{}
	calls := probeCalls
	if sc.smoke {
		calls = 3
	}
	tr := newTracer(fmt.Sprintf("%s/seed%d/trace", w.name, seed), calls)
	root := tr.begin("traced:"+w.name, -1)

	gid := tr.begin("water.gen", root)
	sys, snap := w.generate(seed)
	vals["water.gen_s"] = float64(tr.end(gid)) / 1e9

	nt := max(30, w.timedSteps(sc)/3)
	if sc.smoke {
		nt = 5
	}
	if err := w.insitu(sys, snap, sc, nt, tr, root, vals, o); err != nil {
		return result{}, err
	}
	// sys now holds the state after W + nt steps: the probes' input.
	if err := w.layerProbes(sys, tr, root, vals); err != nil {
		return result{}, err
	}
	if err := w.ckptProbes(sys, seed, tr, root, vals); err != nil {
		return result{}, err
	}
	if err := w.rankProbes(sys, snap, nt, tr, root, vals, o); err != nil {
		return result{}, err
	}
	if err := w.tuneProbes(sys, snap, tr, root, vals, o); err != nil {
		return result{}, err
	}
	if err := serveProbes(fleet, deliveredClass, tr, root, vals, o); err != nil {
		return result{}, err
	}
	tr.end(root)

	crossCheck(log, vals)
	path, err := tr.write(outdir, w.name)
	if err != nil {
		return result{}, fmt.Errorf("writing span file: %w", err)
	}
	fmt.Fprintf(log, "# %d spans written to %s\n", len(tr.spans), path)
	return newResult(o, perLayer, vals), nil
}

// insitu is the traced replay: the workload's own engine with an
// obs.Recorder attached through the public SetObs and a span per step, then
// the same window with neither. The pair gives the in-situ stage times, the md step
// statistics and the tracing overhead; the two must end on the same hash.
func (w solo) insitu(sys *md.System, snap *md.Snapshot, sc scale, nt int, tr *tracer, root int, vals map[string]float64, o *ops) error {
	rec := obs.New()
	rid := tr.begin("replay:obs", root)
	traced, err := w.runReplay(sys, snap, sc.warm, nt, rec, tr, rid, o)
	tr.end(rid)
	if err != nil {
		return err
	}
	pid := tr.begin("replay:plain", root)
	plain, err := w.runReplay(sys, snap, sc.warm, nt, nil, nil, -1, o)
	tr.end(pid)
	if err != nil {
		return err
	}
	o.check(traced.hashEnd == plain.hashEnd,
		fmt.Sprintf("%s: recorder changed the trajectory: %016x with, %016x without", w.name, traced.hashEnd, plain.hashEnd))

	vals["md.first_step_ms"] = plain.firstStepMs
	vals["md.step_ms_p95"] = percentile(plain.stepMs, 95)
	vals["md.allocs_per_step"] = float64(plain.mallocs) / float64(nt)
	vals["obs.overhead_frac"] = median(traced.stepMs)/median(plain.stepMs) - 1
	vals["nonbond.rebuilds_per_100_steps"] = 100 * float64(rec.StageCount(obs.StageNeighbor)) / float64(nt)
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		vals["obs.stage."+s.JSONName()+"_ms"] = float64(rec.StageNs(s)) / float64(nt) / 1e6
	}
	return nil
}

// layerProbes calls each numeric layer's public entry points on the
// warmed-up state.
func (w solo) layerProbes(sys *md.System, tr *tracer, root int, vals map[string]float64) error {
	box, pos, q, n := sys.Box, sys.Pos, sys.Q, sys.N()
	alpha, cfg := w.alpha(), w.solverConfig()
	f := make([]vec.V, n)
	ms := func(name string, fn func()) float64 {
		vals[name] = tr.probe(name, root, fn) / 1e6
		return vals[name]
	}
	us := func(name string, fn func()) float64 {
		vals[name] = tr.probe(name, root, fn) / 1e3
		return vals[name] / 1e3 // ms, for the sums below
	}

	// solver: construction of each registered method at these parameters.
	meshes := map[string]solver.Solver{}
	for _, method := range []string{"tme", "spme", "msm"} {
		var err error
		ms("solver.new_"+method+"_ms", func() { meshes[method], err = solver.New(method, cfg, box) })
		if err != nil {
			return err
		}
	}
	tme := meshes["tme"].(*core.Solver)

	// nonbond + celllist: the Verlet path at the workload's buffer (0.1 nm
	// for a skinless workload) and the per-step cell path.
	skin := w.skin
	if skin == 0 {
		skin = 0.1
	}
	vl := nonbond.NewVerletList(box, w.rc, skin)
	ms("nonbond.rebuild_ms", func() { vl.Rebuild(pos, sys.Excl) })
	pair := ms("nonbond.pair_ms", func() { vl.Compute(pos, q, sys.LJ, alpha, f) })
	vals["nonbond.list_pairs"] = float64(vl.NPairs())
	vals["nonbond.ns_per_pair"] = pair * 1e6 / float64(vl.NPairs())
	cl := celllist.New(box, w.rc)
	us("celllist.rebuild_us", func() { cl.Rebuild(pos) })
	ms("nonbond.cellpath_ms", func() { nonbond.ComputeWithList(cl, box, pos, q, sys.LJ, alpha, sys.Excl, f) })
	// Cells per axis of the list the workload's own neighbour search bins
	// into (cutoff + skin for a Verlet list).
	vals["celllist.cells_per_axis"] = float64(celllist.New(box, w.rc+w.skin).NCells()[0])

	// pmesh: spreading and back interpolation on the finest grid.
	ng := cfg.N
	qg := grid.New(ng[0], ng[1], ng[2])
	assign := ms("pmesh.assign_ms", func() { qg.Zero(); tme.Mesher.AssignTo(qg, pos, q) })
	vals["pmesh.ns_per_spread_point"] = assign * 1e6 / float64(n*order*order*order)
	phi := tme.MeshPotential(pos, q)
	interp := ms("pmesh.interp_ms", func() { tme.Mesher.Interpolate(phi, pos, q, f) })

	// grid: the M separable convolutions at level-0 size, one restriction
	// and one prolongation.
	kern, kernZ, j := tme.Kernels(), tme.LevelZKernels()[0], tme.TwoScale()
	dst, t1, t2 := grid.New(ng[0], ng[1], ng[2]), grid.New(ng[0], ng[1], ng[2]), grid.New(ng[0], ng[1], ng[2])
	conv := ms("grid.conv_ms", func() {
		for v := range kern {
			grid.ConvSeparableAccum(dst, qg, kern[v][0], kern[v][1], kernZ[v], t1, t2)
		}
	})
	vals["grid.ns_per_point_tap"] = conv * 1e6 / float64(len(kern)*qg.Len()*3*(2*cfg.Gc+1))
	pool := grid.NewPool()
	coarse := grid.New(ng[0]/2, ng[1]/2, ng[2]/2)
	restrict := us("grid.restrict_us", func() { grid.RestrictInto(coarse, qg, j, pool) })
	prolong := us("grid.prolong_us", func() { grid.ProlongInto(dst, coarse, j, pool) })

	// spme + fft: the top-level solve and its two transforms.
	phiTop := grid.New(coarse.N[0], coarse.N[1], coarse.N[2])
	top := us("spme.top_level_us", func() { tme.TopSolver().PotentialGridInto(phiTop, coarse) })
	plan := fft.NewRealPlan3(coarse.N[0], coarse.N[1], coarse.N[2])
	spec0 := make([]complex128, plan.SpectrumLen())
	spec := make([]complex128, plan.SpectrumLen())
	data := make([]float64, coarse.Len())
	us("fft.r2c_us", func() { plan.Forward(coarse.Data, spec0) })
	// The inverse works in place on the spectrum, so each call starts from
	// a fresh copy.
	us("fft.c2r_us", func() { copy(spec, spec0); plan.Inverse(spec, data) })

	// core: the whole long-range solve, and the closure check that the
	// probed parts account for it.
	whole := ms("core.long_range_ms", func() { tme.LongRange(pos, q, f) })
	vals["core.parts_over_whole"] = (assign + restrict + top + prolong + conv + interp) / whole
	ms("spme.long_range_ms", func() { meshes["spme"].LongRange(pos, q, f) })
	ms("msm.long_range_ms", func() { meshes["msm"].LongRange(pos, q, f) })
	us("ewald.excl_corr_us", func() { ewald.ExclusionCorrection(box, pos, q, alpha, sys.Excl, f) })

	// constraint: one SETTLE position pass over every water.
	us("constraint.settle_us", func() {
		for _, t := range sys.RigidWaters {
			a, b, c := pos[t[0]], pos[t[1]], pos[t[2]]
			sys.WaterModel.Settle(a, b, c,
				a.Add(sys.Vel[t[0]].Scale(dt)), b.Add(sys.Vel[t[1]].Scale(dt)), c.Add(sys.Vel[t[2]].Scale(dt)))
		}
	})

	// md + par: one whole force evaluation, and an empty parallel loop.
	ff := &md.ForceField{Alpha: alpha, Rc: w.rc, Skin: w.skin, Mesh: tme}
	ms("md.ff_compute_ms", func() { ff.Compute(sys) })
	us("par.dispatch_us", func() { par.ForRange(n, func(lo, hi int) {}) })

	// dist: the plane-block decomposition plan of this solver.
	var err error
	ms("dist.plan_ms", func() { _, err = dist.NewPlan(tme, 2) })
	return err
}

// ckptProbes saves and loads a resume checkpoint of the system on MemFS.
func (w solo) ckptProbes(sys *md.System, seed int64, tr *tracer, root int, vals map[string]float64) error {
	mesh, err := solver.New("tme", w.solverConfig(), sys.Box)
	if err != nil {
		return err
	}
	integ := &md.Integrator{FF: &md.ForceField{Alpha: w.alpha(), Rc: w.rc, Skin: w.skin, Mesh: mesh}, Dt: dt}
	integ.Step(sys) // so the snapshot carries forces and the list reference
	snap := integ.CaptureResume(sys, map[string]int64{"side": int64(w.side), "seed": seed})
	store, err := ckpt.Open("/bench/ckpt", 3, ckpt.ConfigHash(w.name), ckpt.NewMemFS())
	if err != nil {
		return err
	}
	vals["ckpt.save_us"] = tr.probe("ckpt.save_us", root, func() { err = store.Save(snap) }) / 1e3
	if err != nil {
		return err
	}
	vals["ckpt.load_us"] = tr.probe("ckpt.load_us", root, func() { _, err = store.LoadLatest() }) / 1e3
	if err != nil {
		return err
	}
	entries := store.Entries()
	vals["ckpt.bytes"] = float64(entries[len(entries)-1].Size)
	return nil
}

// rankProbes builds a two-rank engine over the system, steps it nr times
// and steps the serial skinless integrator over the same window; the two
// must end on the same hash. This is where the second engine is measured:
// its step time follows the neighbours' load on a shared host too closely
// to be gated (see README.md, Where this departs). The rank engine needs
// three cell layers; a box too small for that at the workload's cutoff is
// probed at the largest cutoff that decomposes.
func (w solo) rankProbes(sys *md.System, snap *md.Snapshot, nr int, tr *tracer, root int, vals map[string]float64, o *ops) error {
	rw := w
	rw.ranks, rw.skin = 2, 0
	if l := sys.Box.L[0]; l/rw.rc < 3 {
		rw.rc = l / 3.001
	}
	const warm = 5

	mesh, err := solver.New("tme", rw.solverConfig(), sys.Box)
	if err != nil {
		return err
	}
	ff := &md.ForceField{Alpha: rw.alpha(), Rc: rw.rc, Mesh: mesh}
	vals["rank.new_ms"] = tr.probe("rank.new_ms", root, func() {
		var eng *rank.Engine
		if eng, err = rank.New(rank.Config{Ranks: rw.ranks}, sys, ff, dt); err == nil {
			eng.Close()
		}
	}) / 1e6
	if err != nil {
		return err
	}

	rid := tr.begin("replay:rank", root)
	ranked, err := rw.runReplay(sys, snap, warm, nr, nil, tr, rid, o)
	tr.end(rid)
	if err != nil {
		return err
	}
	serial := rw
	serial.ranks = 0
	sid := tr.begin("replay:serial-skinless", root)
	twin, err := serial.runReplay(sys, snap, warm, nr, nil, tr, sid, o)
	tr.end(sid)
	if err != nil {
		return err
	}
	o.check(ranked.hashEnd == twin.hashEnd,
		fmt.Sprintf("%s: rank engine ended on %016x, serial skinless twin on %016x", w.name, ranked.hashEnd, twin.hashEnd))

	vals["rank.step_ms_p50"] = median(ranked.stepMs)
	vals["rank.step_ms_p95"] = percentile(ranked.stepMs, 95)
	vals["rank.comm_bytes_per_step"] = float64(ranked.commBytes) / float64(nr)
	vals["rank.speedup_vs_serial"] = median(twin.stepMs) / median(ranked.stepMs)
	vals["rank.allocs_per_step"] = float64(ranked.mallocs) / float64(nr)
	return nil
}

// tuneBudget is the error budget the tuner probe plans for.
const tuneBudget = 1e-3

// tuneProbes asks the tuner for a plan for this box, then runs the plan to
// see how far its predicted step time and error are from measured ones.
func (w solo) tuneProbes(sys *md.System, snap *md.Snapshot, tr *tracer, root int, vals map[string]float64, o *ops) error {
	req := tune.Request{Box: sys.Box, Atoms: sys.N(), ErrBudget: tuneBudget}
	var plan tune.Plan
	var err error
	vals["tune.plan_us"] = tr.probe("tune.plan_us", root, func() { plan, err = tune.PlanFor(req) }) / 1e3
	if err != nil {
		return err
	}

	if err := sys.Restore(snap); err != nil {
		return err
	}
	integ, err := plan.NewIntegrator(sys.Box, dt)
	if err != nil {
		return err
	}
	const warm, timed = 3, 12
	stepMs := make([]float64, 0, timed)
	pid := tr.begin("tune.plan_run", root)
	for i := 0; i < warm+timed; i++ {
		t := time.Now()
		integ.Step(sys)
		if i >= warm {
			stepMs = append(stepMs, float64(time.Since(t).Nanoseconds())/1e6)
		}
	}
	tr.end(pid)
	vals["tune.pred_ms_over_meas"] = plan.PredMs / median(stepMs)

	mesh, err := plan.NewSolver(sys.Box)
	if err != nil {
		return err
	}
	c := config{box: snap.Box, pos: snap.Pos, q: sys.Q}
	num, den := errTerms(mesh, plan.Alpha(), plan.Rc, c, reference(c))
	measured := math.Sqrt(num / den)
	o.check(measured <= tuneBudget, fmt.Sprintf("%s: tuner plan %s measures %.3e, budget %.0e", w.name, plan, measured, tuneBudget))
	vals["tune.pred_err_over_meas"] = plan.PredErr / measured
	return nil
}

// probeFleet is the served traffic a solo workload's traced pass uses: two
// short jobs of the workload's own system, one per client.
func (w solo) probeFleet(seed int64, sc scale) []fleetJob {
	sp := sc.sized(serve.Spec{Method: "tme", Side: w.side, Rc: w.rc, Grid: w.grid, Steps: 30, Equil: 10})
	jobs := make([]fleetJob, clients)
	for i := range jobs {
		sp.Name, sp.Seed = fmt.Sprintf("probe-%02d", i), 1000*seed+int64(i)
		jobs[i] = fleetJob{class: "probe", spec: sp}
	}
	return jobs
}

// serveProbes drives fleet through a fresh daemon with client-side spans
// and derives the serve layer's numbers from what the clients and the
// daemon's own counters saw.
func serveProbes(fleet []fleetJob, deliveredClass string, tr *tracer, root int, vals map[string]float64, o *ops) error {
	d, err := startDaemon(fleetSteps(fleet))
	if err != nil {
		return err
	}
	defer d.stop()
	fid := tr.begin("serve.fleet", root)
	runs, wallS, err := runFleet(d, fleet, tr, fid)
	tr.end(fid)
	if err != nil {
		return err
	}
	stats := d.sched.Stats()

	var submit, first, turn, delivered []float64
	rejected := 0
	for _, r := range runs {
		o.check(r.status.State == serve.StateDone, fmt.Sprintf("job %s ended %s: %s", r.job.spec.Name, r.status.State, r.status.Error))
		submit = append(submit, r.submitMs)
		first = append(first, r.firstStepMs)
		turn = append(turn, r.turnS)
		if r.job.class == deliveredClass {
			delivered = append(delivered, r.turnS*1e3/float64(r.job.spec.Steps))
		}
		rejected += r.rejected
	}
	p50 := float64(stats.StepLatency.P50Ns) / 1e6
	vals["serve.submit_ms_p50"] = median(submit)
	vals["serve.first_step_ms_p50"] = median(first)
	vals["serve.delivered_step_ms_p50"] = median(delivered)
	vals["serve.job_s_p50"] = median(turn)
	vals["serve.job_s_p90"] = percentile(turn, 90)
	vals["serve.jobs_per_s"] = float64(len(runs)) / wallS
	vals["serve.daemon_step_ms_p99"] = float64(stats.StepLatency.P99Ns) / 1e6
	vals["serve.sched_overhead_frac"] = 1 - float64(stats.StepsDone)*p50/1e3/wallS
	vals["serve.rejected_429"] = float64(rejected)
	return nil
}

// crossCheck prints each probe beside the in-situ stage it corresponds to
// and flags pairs that differ by more than a quarter. A flag is a reading
// aid, not a failure: in situ the mesh and pair stages overlap on two
// processors, so they run slower than when probed alone.
func crossCheck(log io.Writer, vals map[string]float64) {
	pairs := []struct {
		probe string
		scale float64 // probe unit → ms
		stage string
	}{
		{"pmesh.assign_ms", 1, "charge_assign"},
		{"pmesh.interp_ms", 1, "back_interp"},
		{"grid.conv_ms", 1, "grid_conv"},
		{"grid.restrict_us", 1e-3, "restrict"},
		{"grid.prolong_us", 1e-3, "prolong"},
		{"spme.top_level_us", 1e-3, "top_spme"},
		{"core.long_range_ms", 1, "mesh_total"},
	}
	fmt.Fprintf(log, "# probe vs in-situ stage (ms per call / per step)\n")
	for _, p := range pairs {
		probe, stage := vals[p.probe]*p.scale, vals["obs.stage."+p.stage+"_ms"]
		flag := ""
		if stage > 0 && math.Abs(probe-stage) > 0.25*stage {
			flag = "  <-- differs by more than 25%"
		}
		fmt.Fprintf(log, "#   %-22s %9.4f   obs.stage.%-14s %9.4f%s\n", p.probe, probe, p.stage, stage, flag)
	}
}
