package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"tme4a/internal/ewald"
	"tme4a/internal/md"
	"tme4a/internal/obs"
	"tme4a/internal/rank"
	"tme4a/internal/serve"
	"tme4a/internal/solver"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
	"tme4a/internal/water"

	// Populate the solver registry.
	_ "tme4a/internal/core"
	_ "tme4a/internal/msm"
)

// Fixed operating point shared by every workload: the paper's p = 6, L = 1,
// M = 3, g_c = 8 at the ewald-rtol = 1e-4 splitting, 1 fs steps.
const (
	order  = 6
	levels = 1
	gaussM = 3
	gridGc = 8
	rtol   = 1e-4
	dt     = 0.001 // ps
	refTol = 1e-10 // Ewald reference tolerance of force_rel_err
)

// solo describes one water system stepped by one engine: the two solo
// workloads, the system the traced pass probes the layers on, and the
// two-rank twin that pass steps it with.
type solo struct {
	name  string
	side  int     // waters per box edge
	rc    float64 // short-range cutoff, nm
	grid  int     // finest mesh points per axis
	skin  float64 // Verlet buffer, nm; 0 = per-step cell traversal
	ranks int     // rank.Engine workers (traced pass only); 0 = serial md.Integrator
	equil int     // thermostatted generator steps

	// stepsPerSecond fixes the run length as a step count: a replay times
	// stepsPerSecond × (-seconds) steps, so both sides of a comparison do
	// identical work. The rates put three replays at about -seconds of
	// stepping on the review host.
	stepsPerSecond float64
	// accBoxes is the number of configurations pooled into force_rel_err:
	// the generated one plus accBoxes−1 fresh random-orientation boxes.
	accBoxes int
}

// scale is what -seconds and -smoke change: how much work a run does.
type scale struct {
	seconds float64
	warm    int // W: untimed steps before the timed window, first step included
	replays int
	smoke   bool
}

// sized returns sp at the size sc asks for: a smoke job is 10 steps after 5
// of equilibration.
func (sc scale) sized(sp serve.Spec) serve.Spec {
	if sc.smoke {
		sp.Steps, sp.Equil = 10, 5
	}
	return sp
}

var soloWorkloads = []solo{
	{name: "sr-verlet", side: 8, rc: 1.0, grid: 16, skin: 0.1, equil: 50, stepsPerSecond: 7, accBoxes: 8},
	{name: "mesh-fine", side: 10, rc: 0.5, grid: 32, skin: 0.1, equil: 50, stepsPerSecond: 16, accBoxes: 4},
}

// shrink returns the smoke-sized twin of w: a side-6 box with a cutoff
// that fits it and a grid that keeps the kernel window inside g_c, one
// pooled configuration.
func (w solo) shrink() solo {
	w.side, w.grid = 6, 16
	w.rc = math.Min(w.rc, 0.45*w.box().L[0])
	w.equil = 5
	w.accBoxes = 1
	return w
}

func (w solo) box() vec.Box   { return water.CubicBoxFor(w.side * w.side * w.side) }
func (w solo) alpha() float64 { return spme.AlphaFromRTol(w.rc, rtol) }

func (w solo) timedSteps(sc scale) int {
	if sc.smoke {
		return 5
	}
	return max(10, int(math.Round(w.stepsPerSecond*sc.seconds)))
}

func (w solo) solverConfig() solver.Config {
	return solver.Config{
		Alpha: w.alpha(), Rc: w.rc, Order: order, N: [3]int{w.grid, w.grid, w.grid},
		Levels: levels, M: gaussM, Gc: gridGc,
	}
}

// generate is the workload generator: lattice build, thermostatted
// equilibration and velocity draw, seeded seed, seed+1, seed+2. It is not
// timed as part of any end-to-end metric.
func (w solo) generate(seed int64) (*md.System, *md.Snapshot) {
	sys := water.Build(w.side, w.side, w.side, w.box(), seed)
	water.Equilibrate(sys, w.equil, dt, 300, math.Min(0.9, w.rc), seed+1)
	sys.InitVelocities(300, rand.New(rand.NewSource(seed+2)))
	return sys, sys.TakeSnapshot(nil)
}

// engine is the stepping surface the two engines share.
type engine struct {
	step   func() (md.Energies, error)
	setObs func(*obs.Recorder)
	close  func()
	rank   *rank.Engine // nil for the serial integrator
}

// newEngine constructs the workload's solver and engine over sys: the
// construction half of setup_s.
func (w solo) newEngine(sys *md.System) (*engine, error) {
	mesh, err := solver.New("tme", w.solverConfig(), sys.Box)
	if err != nil {
		return nil, err
	}
	ff := &md.ForceField{Alpha: w.alpha(), Rc: w.rc, Skin: w.skin, Mesh: mesh}
	if w.ranks == 0 {
		integ := &md.Integrator{FF: ff, Dt: dt}
		return &engine{
			step:   func() (md.Energies, error) { return integ.Step(sys), nil },
			setObs: integ.SetObs,
			close:  func() {},
		}, nil
	}
	eng, err := rank.New(rank.Config{Ranks: w.ranks}, sys, ff, dt)
	if err != nil {
		return nil, err
	}
	return &engine{step: eng.Step, setObs: eng.SetObs, close: eng.Close, rank: eng}, nil
}

// replay is one pass over the timed window.
type replay struct {
	setupS      float64   // construction + first step + warm-up
	firstStepMs float64   // first step alone (bootstrap forces, list build)
	stepMs      []float64 // N individually timed steps
	total       []float64 // total energy after each timed step
	kinetic     []float64
	hashEnd     uint64 // state hash after the last timed step
	heapMB      float64
	mallocs     uint64 // heap allocations during the timed window
	commBytes   int64  // rank protocol traffic during the timed window
}

// runReplay restores snap into sys, builds a fresh engine, warms it up for
// warm steps and times n steps one by one. rec, when non-nil, is attached
// for the whole replay and reset after the warm-up; tr records one span per
// timed step. Step failures are counted into o.
func (w solo) runReplay(sys *md.System, snap *md.Snapshot, warm, n int, rec *obs.Recorder, tr *tracer, parent int, o *ops) (replay, error) {
	var rp replay
	if err := sys.Restore(snap); err != nil {
		return rp, err
	}
	t0 := time.Now()
	eng, err := w.newEngine(sys)
	if err != nil {
		return rp, err
	}
	defer eng.close()
	if rec != nil {
		eng.setObs(rec)
	}
	for i := 0; i < warm; i++ {
		if _, err := eng.step(); err != nil {
			return rp, fmt.Errorf("warm-up step %d: %w", i, err)
		}
		if i == 0 {
			rp.firstStepMs = time.Since(t0).Seconds() * 1e3
		}
	}
	rp.setupS = time.Since(t0).Seconds()
	rec.Reset()
	runtime.GC()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	if eng.rank != nil {
		rp.commBytes = -eng.rank.CommBytes()
	}
	rp.stepMs = make([]float64, n)
	rp.total = make([]float64, n)
	rp.kinetic = make([]float64, n)
	for i := 0; i < n; i++ {
		id := tr.begin("step", parent)
		t := time.Now()
		e, err := eng.step()
		rp.stepMs[i] = float64(time.Since(t).Nanoseconds()) / 1e6
		tr.end(id)
		rp.total[i], rp.kinetic[i] = e.Total(), e.Kinetic
		// The note is built only on failure: this loop's allocations are
		// reported as md.allocs_per_step.
		ok, note := err == nil && isFinite(e.Total()), ""
		if !ok {
			note = fmt.Sprintf("%s: step %d failed: err=%v total=%g", w.name, i, err, e.Total())
		}
		o.check(ok, note)
		if err != nil {
			return rp, fmt.Errorf("timed step %d: %w", i, err)
		}
	}
	runtime.ReadMemStats(&ms)
	rp.mallocs = ms.Mallocs - mallocs0
	if eng.rank != nil {
		rp.commBytes += eng.rank.CommBytes()
	}
	rp.hashEnd = md.StateHash(sys)

	// Live heap with the engine still reachable.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rp.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(eng)
	return rp, nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// nsPerDay converts steps of dt over seconds of wall time to simulated
// nanoseconds per wall-clock day.
func nsPerDay(steps int, seconds float64) float64 {
	return float64(steps) * dt * 1e-3 * 86400 / seconds
}

// energyDrift is energy_drift_rel: the RMS change of the total energy from
// one step to the next over the window, divided by the mean kinetic
// energy. It carries both the secular drift and the step-to-step noise a
// force that is not the gradient of its energy adds, and unlike E(t)−E(t₀)
// it has one sample per step, which is what keeps it steady over a few
// hundred steps.
func energyDrift(total, kinetic []float64) float64 {
	if len(total) < 2 {
		return 0
	}
	var d2 float64
	for i := 1; i < len(total); i++ {
		d := total[i] - total[i-1]
		d2 += d * d
	}
	return math.Sqrt(d2/float64(len(total)-1)) / (sum(kinetic) / float64(len(kinetic)))
}

// Failure thresholds of the accuracy gates.
const (
	maxForceRelErr = 2e-3
	maxEnergyDrift = 1e-3
)

// config is one set of charges in a box, the input of force_rel_err.
type config struct {
	box vec.Box
	pos []vec.V
	q   []float64
}

// errTerms returns the numerator and denominator of the Table-1 relative
// force error of (erfc real space + mesh) against the Ewald reference on
// c: Σ|F − F_ref|² and Σ|F_ref|², all charges, no exclusions (the formula
// of relForceError in internal/expt/table1.go).
func errTerms(mesh md.MeshSolver, alpha, rc float64, c config, ref []vec.V) (num, den float64) {
	f := make([]vec.V, len(c.pos))
	ewald.RealSpace(c.box, c.pos, c.q, alpha, rc, nil, f)
	mesh.LongRange(c.pos, c.q, f)
	for i := range f {
		num += f[i].Sub(ref[i]).Norm2()
		den += ref[i].Norm2()
	}
	return num, den
}

func reference(c config) []vec.V {
	_, f := ewald.Reference(c.box, c.pos, c.q, nil, refTol)
	return f
}

// forceRelErr is the workload's force_rel_err: the Table-1 error of its
// solver pooled over the generated configuration and accBoxes−1 fresh
// boxes (seeds seed+10, seed+11, ...). One 1536-atom configuration moves
// the error by ±4 % from seed to seed; pooling brings that under the
// metric's bound.
func (w solo) forceRelErr(snap *md.Snapshot, q []float64, seed int64) (float64, error) {
	mesh, err := solver.New("tme", w.solverConfig(), snap.Box)
	if err != nil {
		return 0, err
	}
	var num, den float64
	for k := 0; k < w.accBoxes; k++ {
		c := config{box: snap.Box, pos: snap.Pos, q: q}
		if k > 0 {
			c.pos = water.Build(w.side, w.side, w.side, snap.Box, seed+9+int64(k)).Pos
		}
		n, d := errTerms(mesh, w.alpha(), w.rc, c, reference(c))
		num, den = num+n, den+d
	}
	return math.Sqrt(num / den), nil
}

// runSolo is the untraced pass of a solo workload: replays of the same
// window, the filtered step series, and the correctness checks.
func (w solo) runSolo(seed int64, sc scale) (result, error) {
	o := &ops{}
	n := w.timedSteps(sc)
	sys, snap := w.generate(seed)

	reps := make([]replay, sc.replays)
	series := make([][]float64, sc.replays)
	setups := make([]float64, sc.replays)
	for r := range reps {
		rp, err := w.runReplay(sys, snap, sc.warm, n, nil, nil, -1, o)
		if err != nil {
			return result{}, fmt.Errorf("%s replay %d: %w", w.name, r, err)
		}
		reps[r], series[r], setups[r] = rp, rp.stepMs, rp.setupS
		if r > 0 {
			o.check(rp.hashEnd == reps[0].hashEnd,
				fmt.Sprintf("%s: replay %d ended on %016x, replay 0 on %016x", w.name, r, rp.hashEnd, reps[0].hashEnd))
		}
	}

	filtered := filterSeries(series)
	ferr, err := w.forceRelErr(snap, sys.Q, seed)
	if err != nil {
		return result{}, err
	}
	drift := energyDrift(reps[0].total, reps[0].kinetic)
	o.check(ferr <= maxForceRelErr, fmt.Sprintf("%s: force_rel_err %.3e above %.0e", w.name, ferr, maxForceRelErr))
	o.check(drift <= maxEnergyDrift, fmt.Sprintf("%s: energy_drift_rel %.3e above %.0e", w.name, drift, maxEnergyDrift))

	return newResult(o, endToEnd, map[string]float64{
		"setup_s":          median(setups),
		"ns_per_day":       nsPerDay(n, sum(filtered)/1e3),
		"step_ms_p50":      median(filtered),
		"force_rel_err":    ferr,
		"energy_drift_rel": drift,
		"live_heap_mb":     reps[len(reps)-1].heapMB,
	}), nil
}
