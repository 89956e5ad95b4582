// Engine: owns the worker goroutines, drives boot/step rounds over the
// command and result channels, and folds the per-rank energy terms into the
// serial energy breakdown and system state.
package rank

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tme4a/internal/celllist"
	"tme4a/internal/core"
	"tme4a/internal/dist"
	"tme4a/internal/ewald"
	"tme4a/internal/md"
	"tme4a/internal/nonbond"
	"tme4a/internal/obs"
	"tme4a/internal/pmesh"
)

// Engine steps a system with R rank workers, bitwise identical to
// md.Integrator.Step on the same force field. Not safe for concurrent
// use: Step, Close and the accessors must be called from one goroutine.
type Engine struct {
	cfg Config
	sys *md.System
	sh  *shared

	workers []*worker
	cmds    []chan uint8
	resCh   chan *result
	wg      sync.WaitGroup
	last    []*result

	selfE   float64
	partAll []nonbond.SlabPartial
	eterm   []float64

	booted bool
	closed bool
	broken error
}

// New validates that the force field is rank-decomposable and builds the
// engine: slab and plane ownership, the link matrix, one worker per
// rank. The system's positions and velocities at call time seed every
// worker; after that, sys is only written by Step's fold.
func New(cfg Config, sys *md.System, ff *md.ForceField, dt float64) (*Engine, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("rank: rank count %d < 1", cfg.Ranks)
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if ff.Skin != 0 {
		return nil, fmt.Errorf("rank: a Verlet skin (%g nm) is not rank-decomposable: each rank rebuilds its skin-0 pair list every step; use Skin 0", ff.Skin)
	}
	if ff.Bonded != nil {
		return nil, fmt.Errorf("rank: bonded terms are not supported in rank mode")
	}
	var tme *core.Solver
	if ff.Mesh != nil {
		t, ok := ff.Mesh.(*core.Solver)
		if !ok {
			return nil, fmt.Errorf("rank: mesh solver %T is not rank-decomposable (need the TME solver)", ff.Mesh)
		}
		if t.Box.L != sys.Box.L {
			return nil, fmt.Errorf("rank: mesh solver box %v does not match system box %v", t.Box.L, sys.Box.L)
		}
		tme = t
	}
	probe := celllist.New(sys.Box, ff.Rc)
	if probe.Direct() {
		return nil, fmt.Errorf("rank: box %v with cutoff %g has no cell decomposition (direct mode)", sys.Box.L, ff.Rc)
	}
	ns := probe.NCells()[2]
	r := cfg.Ranks
	if r > ns {
		return nil, fmt.Errorf("rank: %d ranks over %d cell layers; need ranks <= layers", r, ns)
	}
	n := sys.N()

	sh := &shared{
		n:     n,
		r:     r,
		dt:    dt,
		alpha: ff.Alpha,
		rc:    ff.Rc,
		ns:    ns,
		cells: probe,
		abort: make(chan struct{}),
	}
	var once sync.Once
	ab := sh.abort
	sh.abortOnce = func() { once.Do(func() { close(ab) }) }
	sh.slabLo = make([]int, r+1)
	for a := 0; a <= r; a++ {
		sh.slabLo[a] = a * ns / r
	}

	if tme != nil {
		plan, err := dist.NewPlan(tme, r)
		if err != nil {
			return nil, err
		}
		sh.plan = plan
		sh.mesher = plan.Mesher
		sh.onz0 = plan.D.Onz(0)
	}

	if err := buildOwnership(sh, sys, probe); err != nil {
		return nil, err
	}

	if r > 1 {
		sh.links = make([][]*link, r)
		for a := 0; a < r; a++ {
			sh.links[a] = make([]*link, r)
			for b := 0; b < r; b++ {
				if a == b {
					continue
				}
				sh.links[a][b] = newLink(linkSchedule(sh.plan, r, a, b), n)
			}
		}
	}

	e := &Engine{
		cfg:     cfg,
		sys:     sys,
		sh:      sh,
		workers: make([]*worker, r),
		cmds:    make([]chan uint8, r),
		resCh:   make(chan *result, r),
		last:    make([]*result, r),
		partAll: make([]nonbond.SlabPartial, ns),
	}
	if tme != nil {
		e.selfE = ewald.SelfEnergy(sys.Q, tme.Prm.Alpha)
		e.eterm = make([]float64, n)
	}
	for a := 0; a < r; a++ {
		e.cmds[a] = make(chan uint8, 1)
		e.workers[a] = newWorker(sh, a, e.cmds[a], e.resCh, sys)
	}
	for _, w := range e.workers {
		e.wg.Add(1)
		go func(w *worker) {
			defer e.wg.Done()
			w.run()
		}(w)
	}
	return e, nil
}

// buildOwnership assigns every atom to the rank owning its initial cell
// layer, whole molecules at a time (a rigid water follows its oxygen),
// and materializes the per-rank atom and water lists in ascending order.
func buildOwnership(sh *shared, sys *md.System, probe *celllist.List) error {
	n := sh.n
	sh.owner = make([]int32, n)
	for i := range sh.owner {
		sh.owner[i] = -1
	}
	layerOwner := func(lay int) int32 {
		for a := 0; a < sh.r; a++ {
			if lay < sh.slabLo[a+1] {
				return int32(a)
			}
		}
		return int32(sh.r - 1)
	}
	for _, t := range sys.RigidWaters {
		o := layerOwner(probe.Layer(sys.Pos[t[0]]))
		for _, i := range t {
			if sh.owner[i] >= 0 && sh.owner[i] != o {
				return fmt.Errorf("rank: atom %d belongs to two molecules with different owners", i)
			}
			sh.owner[i] = o
		}
	}
	for i := 0; i < n; i++ {
		if sh.owner[i] < 0 {
			sh.owner[i] = layerOwner(probe.Layer(sys.Pos[i]))
		}
	}
	sh.own = make([]md.Owned, sh.r)
	for i := 0; i < n; i++ {
		o := &sh.own[sh.owner[i]]
		o.Atoms = append(o.Atoms, int32(i))
	}
	for wi, t := range sys.RigidWaters {
		o := &sh.own[sh.owner[t[0]]]
		o.Waters = append(o.Waters, int32(wi))
	}
	return nil
}

// Step advances the system one time step and returns the energies at the
// new positions, bitwise those of md.Integrator.Step. The first call
// runs a boot round (the serial bootstrap force evaluation) first. Any
// rank failure or watchdog timeout breaks the engine permanently.
func (e *Engine) Step() (md.Energies, error) {
	if e.broken != nil {
		return md.Energies{}, e.broken
	}
	if e.closed {
		return md.Energies{}, fmt.Errorf("rank: engine closed")
	}
	if !e.booted {
		if err := e.round(cmdBoot); err != nil {
			return md.Energies{}, err
		}
		e.booted = true
	}
	if err := e.round(cmdStep); err != nil {
		return md.Energies{}, err
	}
	return e.fold(), nil
}

// round broadcasts one command and collects all R results. On a rank
// error it trips the abort latch so blocked peers unwind, then keeps
// collecting — the abort guarantees every rank responds. The watchdog
// timer (Config.StepTimeout > 0 only, keeping the default path
// allocation-free) turns a lost or mis-sized message into a diagnosis
// instead of a hang.
func (e *Engine) round(cmd uint8) error {
	for a := 0; a < e.sh.r; a++ {
		e.cmds[a] <- cmd
	}
	var timeout <-chan time.Time
	if e.cfg.StepTimeout > 0 {
		timer := time.NewTimer(e.cfg.StepTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	timedOut := false
	for got := 0; got < e.sh.r; {
		select {
		case res := <-e.resCh:
			e.last[res.rank] = res
			got++
			if res.err != nil && !errors.Is(res.err, errAborted) {
				e.sh.abortAll()
			}
		case <-timeout:
			timeout = nil
			timedOut = true
			e.sh.abortAll()
		}
	}
	var errs []error
	for a := 0; a < e.sh.r; a++ {
		if err := e.last[a].err; err != nil && !errors.Is(err, errAborted) {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		e.broken = errors.Join(errs...)
		return e.broken
	}
	if timedOut {
		e.broken = fmt.Errorf("rank: step exceeded %v: ranks deadlocked (mis-sized exchange or lost message?)", e.cfg.StepTimeout)
		return e.broken
	}
	return nil
}

// fold merges the rank results into sys and the serial energy breakdown
// with the folds the serial engine's own terms end in: slab partials
// through nonbond.FoldSlabs, which also counts the excluded pairs the
// ranks corrected for nonbond.CheckExclusions, mesh energy terms through
// pmesh.FoldEnergy; positions and velocities come from each atom's owner.
// sys.Frc is not maintained — forces live in the workers.
func (e *Engine) fold() md.Energies {
	sh := e.sh
	for a, res := range e.last {
		copy(e.partAll[sh.slabLo[a]:sh.slabLo[a+1]], res.part)
		for _, i := range sh.own[a].Atoms {
			e.sys.Pos[i] = res.pos[i]
			e.sys.Vel[i] = res.vel[i]
		}
		if sh.plan == nil {
			continue
		}
		for _, i := range res.interpIdx {
			e.eterm[i] = res.eterm[i]
		}
	}
	short := nonbond.FoldSlabs(e.partAll)
	en := md.Energies{CoulShort: short.ECoul, CoulExcl: short.EExcl, LJ: short.ELJ}
	if sh.plan != nil {
		nonbond.CheckExclusions(short, e.sys.Box, e.sys.Pos, e.sys.Excl, sh.rc)
		en.CoulLong = pmesh.FoldEnergy(e.eterm, e.sys.Q) + e.selfE
	}
	en.Kinetic = e.sys.KineticEnergy()
	return en
}

// SetObs attaches a stage recorder to rank 0's worker and its pair list
// (nil detaches). Call it only between steps.
func (e *Engine) SetObs(rec *obs.Recorder) {
	e.workers[0].o = rec
	e.workers[0].vl.SetObs(rec)
}

// CommBytes returns the total modeled protocol traffic (bytes) since the
// engine was built, summed over all ranks' sends.
func (e *Engine) CommBytes() int64 {
	var t int64
	for _, w := range e.workers {
		t += w.commBytes
	}
	return t
}

// Close shuts the workers down and waits for them to exit. Safe after a
// broken step (workers park between rounds regardless of errors);
// idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, c := range e.cmds {
		close(c)
	}
	e.wg.Wait()
}
