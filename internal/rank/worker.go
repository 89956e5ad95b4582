// Per-rank worker goroutine. Each worker replays the serial step on its
// owned atoms and planes: integration phases on owned atoms only, the
// short-range term over its slab range, the mesh pipeline over its plane
// block, exclusion corrections on owned atoms — every per-atom and
// per-element float sequence identical to the single-process engine's, so
// the merged trajectory is bitwise equal at any rank count.
package rank

import (
	"fmt"
	"math"

	"tme4a/internal/celllist"
	"tme4a/internal/constraint"
	"tme4a/internal/dist"
	"tme4a/internal/ewald"
	"tme4a/internal/grid"
	"tme4a/internal/nonbond"
	"tme4a/internal/obs"
	"tme4a/internal/pmesh"
	"tme4a/internal/topol"
	"tme4a/internal/units"
	"tme4a/internal/vec"
)

// Round commands sent from the engine to the workers.
const (
	// cmdBoot evaluates forces at the current positions without
	// integrating — the serial integrator's bootstrap Compute.
	cmdBoot uint8 = iota
	// cmdStep runs a full velocity-Verlet step.
	cmdStep
)

// errAborted marks a rank that was interrupted by the shared abort
// signal rather than failing itself; the engine filters it out of the
// joined step error.
var errAborted = fmt.Errorf("aborted by peer failure")

// abortSignal is panicked out of a blocked receive when the shared abort
// channel closes; round's recover translates it to errAborted.
type abortSignal struct{}

// shared is the state common to all workers: immutable topology, the
// decomposition tables, the link matrix and the abort latch. Built once
// by the engine; workers only read it (abortAll's latch excepted).
type shared struct {
	n     int
	r     int
	dt    float64
	alpha float64
	rc    float64
	box   vec.Box
	q     []float64
	mass  []float64
	lj    *nonbond.LJ
	excl  *topol.Exclusions

	waters [][3]int
	wm     *constraint.Water

	// Slab ownership: ns cell layers split into contiguous blocks,
	// slabLo[r] .. slabLo[r+1] (slabLo has r+1 entries, last = ns).
	owner       []int32 // owning rank per atom (whole molecules)
	slabLo      []int
	ns          int
	ownedIdx    [][]int32 // owned atoms per rank, ascending
	ownedWaters [][]int32 // owned water indices per rank, ascending

	// Mesh mode only (nil/zero in cutoff mode).
	plan    *dist.Plan
	mesher  *pmesh.Mesher
	onz0    int     // finest-grid planes per rank
	exclOff []int32 // len n+1: flat exclusion-term offsets per atom

	links [][]*link // links[a][b] carries a→b traffic; nil on a==b or R==1

	abort     chan struct{}
	abortOnce func()
}

// inCellWindow reports whether cell layer lay falls in rank dst's
// short-range window: its owned slabs plus the one layer above (the
// half-stencil partner of its top slab). At R = 1 the window is the
// whole ring.
func (sh *shared) inCellWindow(dst, lay int) bool {
	s0 := sh.slabLo[dst]
	span := sh.slabLo[dst+1] - s0
	return (lay-s0+sh.ns)%sh.ns <= span
}

// worker is one rank's execution state. The fields marked with owners
// are touched only by the worker goroutine between the engine's round
// barriers; the engine reads them (and writes o and the test hooks) only
// while the worker is parked between rounds.
type worker struct {
	sh    *shared
	rank  int
	cmds  chan uint8
	resCh chan *result

	out []*link // out[dst]: this rank's sends to dst
	in  []*link // in[src]: receives from src

	cl   *celllist.List
	sc   *nonbond.SlabScratch
	mesh *dist.Mesh // nil in cutoff mode

	// Rank 0's full top grids for the gathered SPME solve (mesh mode).
	topQ, topPhi *grid.G

	// o records rank 0's stage spans; the engine sets it between rounds.
	o *obs.Recorder

	// Test hooks, set by in-package tests between rounds: testDrop
	// suppresses matching sends (protocol-loss injection), testPanic runs
	// at the top of each round.
	testDrop  func(dst int, kind uint8) bool
	testPanic func(step int)

	step      int       //tme:owner worker.run
	pos       []vec.V   //tme:owner worker.run
	vel       []vec.V   //tme:owner worker.run
	frc       []vec.V   //tme:owner worker.run
	stamp     []int32   //tme:owner worker.run
	shortF    []vec.V   //tme:owner worker.run
	meshF     []vec.V   //tme:owner worker.run
	etermFull []float64 //tme:owner worker.run
	old       []vec.V   //tme:owner worker.run
	cellIdx   []int32   //tme:owner worker.run
	assignIdx []int32   //tme:owner worker.run
	interpIdx []int32   //tme:owner worker.run
	pairBytes []int64   //tme:owner worker.run

	res *result
}

// result is a rank's per-round report. pos, vel and eterm share backing
// arrays with the worker's full-length state; the engine reads them only
// between rounds, under the result-channel happens-before edge.
//
//tme:owner worker.run
type result struct {
	rank      int
	err       error
	part      []nonbond.SlabPartial // owned slabs' energy partials
	pos, vel  []vec.V               // full-length; valid at owned indices
	interpIdx []int32               // atoms this rank interpolated
	eterm     []float64             // full-length per-atom energy terms
	exclTerm  []float64             // flat exclusion terms, owned atoms
}

// newWorker builds rank r's state. Every worker-owned field is
// initialized here, in the composite literals, and never reassigned from
// outside the worker goroutine.
func newWorker(sh *shared, r int, cmds chan uint8, resCh chan *result, pos0, vel0 []vec.V) *worker {
	n := sh.n
	pos := make([]vec.V, n)
	copy(pos, pos0)
	vel := make([]vec.V, n)
	copy(vel, vel0)
	span := sh.slabLo[r+1] - sh.slabLo[r]
	var mesh *dist.Mesh
	var topQ, topPhi *grid.G
	var assignIdx, interpIdx []int32
	var etermFull []float64
	var meshF []vec.V
	exclN := 0
	if sh.plan != nil {
		mesh = sh.plan.NewMesh(r)
		if r == 0 {
			tn := sh.plan.TopN()
			topQ = grid.New(tn[0], tn[1], tn[2])
			topPhi = grid.New(tn[0], tn[1], tn[2])
		}
		assignIdx = make([]int32, 0, n)
		interpIdx = make([]int32, 0, n)
		etermFull = make([]float64, n)
		meshF = make([]vec.V, n)
		for _, i := range sh.ownedIdx[r] {
			exclN += int(sh.exclOff[i+1] - sh.exclOff[i])
		}
	}
	var out, in []*link
	if sh.r > 1 {
		out = make([]*link, sh.r)
		in = make([]*link, sh.r)
		for p := 0; p < sh.r; p++ {
			if p == r {
				continue
			}
			out[p] = sh.links[r][p]
			in[p] = sh.links[p][r]
		}
	}
	return &worker{
		sh:        sh,
		rank:      r,
		cmds:      cmds,
		resCh:     resCh,
		out:       out,
		in:        in,
		cl:        celllist.New(sh.box, sh.rc),
		sc:        &nonbond.SlabScratch{},
		mesh:      mesh,
		topQ:      topQ,
		topPhi:    topPhi,
		pos:       pos,
		vel:       vel,
		frc:       make([]vec.V, n),
		stamp:     make([]int32, n),
		shortF:    make([]vec.V, n),
		meshF:     meshF,
		etermFull: etermFull,
		old:       make([]vec.V, 3*len(sh.ownedWaters[r])),
		cellIdx:   make([]int32, 0, n),
		assignIdx: assignIdx,
		interpIdx: interpIdx,
		pairBytes: make([]int64, sh.r),
		res: &result{
			rank:     r,
			part:     make([]nonbond.SlabPartial, span),
			pos:      pos,
			vel:      vel,
			eterm:    etermFull,
			exclTerm: make([]float64, exclN),
		},
	}
}

// run is the worker goroutine: one round per engine command, one result
// per round. Exits when the engine closes the command channel.
func (w *worker) run() {
	for cmd := range w.cmds {
		w.res.err = w.round(cmd)
		w.resCh <- w.res
	}
}

// round executes one boot or step round. A peer-abort surfaces as
// errAborted; any other panic trips the shared abort (so peers blocked
// on this rank's messages unwind too) and is reported with the rank id.
func (w *worker) round(cmd uint8) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				err = fmt.Errorf("rank %d: %w", w.rank, errAborted)
				return
			}
			w.sh.abortAll()
			err = fmt.Errorf("rank %d: panic: %v", w.rank, r)
		}
	}()
	w.step++
	if w.testPanic != nil {
		w.testPanic(w.step)
	}
	for _, lk := range w.out {
		if lk != nil {
			lk.cur = 0
		}
	}
	if cmd == cmdStep {
		sp := w.o.Start(obs.StageStep)
		w.integratePhase1()
		w.forceRound()
		w.integratePhase3()
		sp.Stop()
	} else {
		w.forceRound()
	}
	if w.sh.plan != nil {
		w.res.interpIdx = w.interpIdx
	}
	return nil
}

// forceRound evaluates all force terms at the current positions,
// leaving frc[i] for every owned atom i equal to the serial engine's
// merged force — the body of ForceField.Compute.
func (w *worker) forceRound() {
	w.exchangePositions()
	w.buildWindows()
	w.shortRange()
	if w.sh.plan != nil {
		w.meshRound()
		w.exclusionRound()
		w.mergeMesh()
	}
}

// integratePhase1 is the serial step's first half: half-kick, reference
// capture, drift, SETTLE — restricted to owned atoms and waters, whose
// per-atom arithmetic is independent, so values match the serial sweep.
func (w *worker) integratePhase1() {
	sh := w.sh
	dt := sh.dt
	owned := sh.ownedIdx[w.rank]
	sp := w.o.Start(obs.StageIntegrate)
	for _, i := range owned {
		w.vel[i] = w.vel[i].Add(w.frc[i].Scale(0.5 * dt / sh.mass[i]))
	}
	waters := sh.ownedWaters[w.rank]
	if sh.wm != nil && len(waters) > 0 {
		for k, wi := range waters {
			t := sh.waters[wi]
			w.old[3*k] = w.pos[t[0]]
			w.old[3*k+1] = w.pos[t[1]]
			w.old[3*k+2] = w.pos[t[2]]
		}
	}
	for _, i := range owned {
		w.pos[i] = w.pos[i].Add(w.vel[i].Scale(dt))
	}
	sp.Stop()
	if sh.wm != nil {
		sp = w.o.Start(obs.StageConstraint)
		for k, wi := range waters {
			t := sh.waters[wi]
			a0, b0, c0 := w.old[3*k], w.old[3*k+1], w.old[3*k+2]
			a, b, c := sh.wm.Settle(a0, b0, c0, w.pos[t[0]], w.pos[t[1]], w.pos[t[2]])
			w.vel[t[0]] = a.Sub(a0).Scale(1 / dt)
			w.vel[t[1]] = b.Sub(b0).Scale(1 / dt)
			w.vel[t[2]] = c.Sub(c0).Scale(1 / dt)
			w.pos[t[0]], w.pos[t[1]], w.pos[t[2]] = a, b, c
		}
		sp.Stop()
	}
}

// integratePhase3 is the second half-kick plus the velocity half of
// SETTLE, on owned atoms and waters.
func (w *worker) integratePhase3() {
	sh := w.sh
	dt := sh.dt
	sp := w.o.Start(obs.StageIntegrate)
	for _, i := range sh.ownedIdx[w.rank] {
		w.vel[i] = w.vel[i].Add(w.frc[i].Scale(0.5 * dt / sh.mass[i]))
	}
	sp.Stop()
	sp = w.o.Start(obs.StageConstraint)
	if sh.wm != nil {
		for _, wi := range sh.ownedWaters[w.rank] {
			t := sh.waters[wi]
			sh.wm.SettleVelocities(
				w.pos[t[0]], w.pos[t[1]], w.pos[t[2]],
				&w.vel[t[0]], &w.vel[t[1]], &w.vel[t[2]])
		}
	}
	sp.Stop()
}

// needs reports whether rank dst's windows require atom i's current
// position: its short-range cell window, its assignment support or its
// interpolation base plane. The receiver re-tests the same predicates on
// delivered atoms, so the sets provably match.
func (w *worker) needs(dst, i int) bool {
	sh := w.sh
	if sh.inCellWindow(dst, w.cl.Layer(w.pos[i])) {
		return true
	}
	if sh.plan != nil {
		zlo, zhi := dst*sh.onz0, (dst+1)*sh.onz0
		if sh.mesher.SupportHits(w.pos[i], zlo, zhi) {
			return true
		}
		if b := sh.mesher.BasePlane(w.pos[i]); b >= zlo && b < zhi {
			return true
		}
	}
	return false
}

// exchangePositions stamps the rank's owned atoms current and ships each
// peer the owned positions its windows need, then installs received
// positions (stamping them current).
func (w *worker) exchangePositions() {
	sh := w.sh
	st := int32(w.step)
	owned := sh.ownedIdx[w.rank]
	for _, i := range owned {
		w.stamp[i] = st
	}
	if sh.r == 1 {
		return
	}
	for dst := 0; dst < sh.r; dst++ {
		if dst == w.rank {
			continue
		}
		p := w.slot(dst, kindPos)
		p.idx = p.idx[:0]
		p.v = p.v[:0]
		for _, i := range owned {
			if w.needs(dst, int(i)) {
				p.idx = append(p.idx, i)
				p.v = append(p.v, w.pos[i])
			}
		}
		w.send(dst, p)
	}
	for src := 0; src < sh.r; src++ {
		if src == w.rank {
			continue
		}
		p := w.recv(src, kindPos)
		for k, i := range p.idx {
			w.pos[i] = p.v[k]
			w.stamp[i] = st
		}
	}
}

// buildWindows scans all current-step atoms in ascending global index —
// the serial particle order — into the rank's cell, assignment and
// interpolation lists.
func (w *worker) buildWindows() {
	sh := w.sh
	st := int32(w.step)
	w.cellIdx = w.cellIdx[:0]
	meshMode := sh.plan != nil
	if meshMode {
		w.assignIdx = w.assignIdx[:0]
		w.interpIdx = w.interpIdx[:0]
	}
	zlo, zhi := w.rank*sh.onz0, (w.rank+1)*sh.onz0
	for i := 0; i < sh.n; i++ {
		if w.stamp[i] != st {
			continue
		}
		if sh.inCellWindow(w.rank, w.cl.Layer(w.pos[i])) {
			w.cellIdx = append(w.cellIdx, int32(i))
		}
		if !meshMode {
			continue
		}
		if sh.mesher.SupportHits(w.pos[i], zlo, zhi) {
			w.assignIdx = append(w.assignIdx, int32(i))
		}
		if b := sh.mesher.BasePlane(w.pos[i]); b >= zlo && b < zhi {
			w.interpIdx = append(w.interpIdx, int32(i))
		}
	}
}

// inRange reports whether cell layer lay is one of this rank's owned
// slabs (blocks never wrap, so a plain comparison suffices).
func (w *worker) inRange(lay int) bool {
	return lay >= w.sh.slabLo[w.rank] && lay < w.sh.slabLo[w.rank+1]
}

// shortRange evaluates the rank's slab range, completes the deferred
// reaction-force ring exchange, and routes each window atom's finished
// short force to its owner. Every atom's force is computed entirely by
// the single rank whose slab range holds its layer, so the owner
// installs one value per atom — no cross-rank summation to order.
func (w *worker) shortRange() {
	sh := w.sh
	sp := w.o.Start(obs.StageShortRange)
	for _, i := range w.cellIdx {
		w.shortF[i] = vec.V{}
	}
	spn := w.o.Start(obs.StageNeighbor)
	w.cl.RebuildSubset(w.pos, w.cellIdx)
	spn.Stop()
	s0, s1 := sh.slabLo[w.rank], sh.slabLo[w.rank+1]
	def := nonbond.ComputeSlabRange(w.cl, w.pos, sh.q, sh.lj, sh.alpha, sh.excl,
		w.shortF, w.res.part, w.sc, s0, s1)
	if w.o.Enabled() {
		var pairs int
		for _, p := range w.res.part[:s1-s0] {
			pairs += p.Pairs
		}
		w.o.Add(obs.CounterPairsEvaluated, int64(pairs))
	}
	if sh.r == 1 {
		nonbond.ApplyDeferred(w.shortF, def)
	} else {
		nxt := (w.rank + 1) % sh.r
		p := w.slot(nxt, kindDef)
		p.def = def
		w.send(nxt, p)
		pd := w.recv((w.rank-1+sh.r)%sh.r, kindDef)
		nonbond.ApplyDeferred(w.shortF, pd.def)
		for dst := 0; dst < sh.r; dst++ {
			if dst == w.rank {
				continue
			}
			ps := w.slot(dst, kindShort)
			ps.idx = ps.idx[:0]
			ps.v = ps.v[:0]
			for _, i := range w.cellIdx {
				if sh.owner[i] == int32(dst) && w.inRange(w.cl.Layer(w.pos[i])) {
					ps.idx = append(ps.idx, i)
					ps.v = append(ps.v, w.shortF[i])
				}
			}
			w.send(dst, ps)
		}
	}
	for _, i := range sh.ownedIdx[w.rank] {
		if w.inRange(w.cl.Layer(w.pos[i])) {
			w.frc[i] = w.shortF[i]
		}
	}
	if sh.r > 1 {
		for src := 0; src < sh.r; src++ {
			if src == w.rank {
				continue
			}
			p := w.recv(src, kindShort)
			for k, i := range p.idx {
				w.frc[i] = p.v[k]
			}
		}
	}
	sp.Stop()
}

// gridExchange runs one halo exchange: pack and send the sleeves this
// rank owes (ascending destination), unpack received sleeves (ascending
// source — slot-disjoint, so order is cosmetic), then fill own planes.
func (w *worker) gridExchange(h *dist.Halo, src, ext *grid.G) {
	sh := w.sh
	for dst := 0; dst < sh.r; dst++ {
		if dst == w.rank || h.PackSize(w.rank, dst) == 0 {
			continue
		}
		p := w.slot(dst, kindGrid)
		p.n = h.Pack(w.rank, dst, src.Data, p.fl)
		w.send(dst, p)
	}
	for s := 0; s < sh.r; s++ {
		if s == w.rank || h.PackSize(s, w.rank) == 0 {
			continue
		}
		p := w.recv(s, kindGrid)
		if p.n != h.PackSize(s, w.rank) {
			panic(fmt.Sprintf("rank %d: mis-sized sleeve from %d: %d floats, want %d",
				w.rank, s, p.n, h.PackSize(s, w.rank)))
		}
		h.Unpack(w.rank, s, p.fl[:p.n], ext.Data)
	}
	h.FillOwn(w.rank, src.Data, ext.Data)
}

// topSolve gathers the top-level charge blocks to rank 0, runs the SPME
// top solver there, and scatters the potential blocks back. The block
// copies are plane-major and contiguous, exactly the sequential
// solver's gather/scatter.
func (w *worker) topSolve() {
	sh := w.sh
	pl := sh.plan
	L := pl.D.Levels
	tn := pl.TopN()
	blk := pl.D.Onz(L) * tn[0] * tn[1]
	m := w.mesh
	if w.rank != 0 {
		p := w.slot(0, kindTopQ)
		p.fl = m.Q[L].Data
		w.send(0, p)
		pr := w.recv(0, kindTopPhi)
		copy(m.Phi[L].Data, pr.fl)
		return
	}
	copy(w.topQ.Data[:blk], m.Q[L].Data)
	for a := 1; a < sh.r; a++ {
		p := w.recv(a, kindTopQ)
		copy(w.topQ.Data[a*blk:(a+1)*blk], p.fl)
	}
	pl.TME.TopSolver().PotentialGridInto(w.topPhi, w.topQ)
	copy(m.Phi[L].Data, w.topPhi.Data[:blk])
	for a := 1; a < sh.r; a++ {
		p := w.slot(a, kindTopPhi)
		p.fl = w.topPhi.Data[a*blk : (a+1)*blk]
		w.send(a, p)
	}
}

// meshRound runs the rank's block of the TME pipeline — the stage
// sequence of dist.Solver.LongRange with channel-borne exchanges — then
// routes interpolated mesh forces to their owners.
func (w *worker) meshRound() {
	sh := w.sh
	pl := sh.plan
	m := w.mesh
	sp := w.o.Start(obs.StageMesh)
	spa := w.o.Start(obs.StageAssign)
	m.AssignOwn(w.assignIdx, w.pos, sh.q)
	spa.Stop()
	spr := w.o.Start(obs.StageRestrict)
	for k := 0; k < pl.D.Levels; k++ {
		w.gridExchange(pl.Restrict[k], m.RestrictXY(k), m.RestrictExt(k))
		m.RestrictZ(k)
	}
	spr.Stop()
	spt := w.o.Start(obs.StageTopSPME)
	w.topSolve()
	spt.Stop()
	for k := pl.D.Levels - 1; k >= 0; k-- {
		spp := w.o.Start(obs.StageProlong)
		w.gridExchange(pl.Prolong[k], m.ProlongXY(k), m.ProlongExt(k))
		m.ProlongZ(k)
		spp.Stop()
		spc := w.o.Start(obs.StageConv)
		for v := 0; v < pl.TME.Prm.M; v++ {
			w.gridExchange(pl.Conv[k], m.ConvXY(k, v), m.ConvExt(k))
			m.ConvZAccum(k, v)
		}
		spc.Stop()
	}
	spi := w.o.Start(obs.StageInterp)
	w.gridExchange(pl.Interp, m.Phi[0], m.InterpExt())
	for _, i := range w.interpIdx {
		w.meshF[i] = vec.V{}
	}
	m.Interp(w.interpIdx, w.pos, sh.q, w.etermFull, w.meshF)
	spi.Stop()
	if sh.r > 1 {
		for dst := 0; dst < sh.r; dst++ {
			if dst == w.rank {
				continue
			}
			p := w.slot(dst, kindMesh)
			p.idx = p.idx[:0]
			p.v = p.v[:0]
			for _, i := range w.interpIdx {
				if sh.owner[i] == int32(dst) {
					p.idx = append(p.idx, i)
					p.v = append(p.v, w.meshF[i])
				}
			}
			w.send(dst, p)
		}
		for src := 0; src < sh.r; src++ {
			if src == w.rank {
				continue
			}
			p := w.recv(src, kindMesh)
			for k, i := range p.idx {
				w.meshF[i] = p.v[k]
			}
		}
	}
	sp.Stop()
}

// exclusionRound evaluates the Ewald exclusion correction gathered onto
// the rank's owned atoms — the exact per-pair arithmetic and per-atom
// accumulation of ewald.ExclusionCorrection, with per-pair energy terms
// recorded flat (zero for charge-skipped pairs, preserving offsets) for
// the engine's chunk-order replay. Excluded partners are intra-molecular
// and molecules are co-owned, so every pos[j] read is current.
func (w *worker) exclusionRound() {
	sh := w.sh
	if sh.excl == nil {
		return
	}
	alpha := sh.alpha
	terms := w.res.exclTerm
	cur := 0
	for _, i32 := range sh.ownedIdx[w.rank] {
		i := int(i32)
		if int(sh.exclOff[i+1]-sh.exclOff[i]) == 0 {
			continue
		}
		qi := sh.q[i]
		ri := w.pos[i]
		for _, j32 := range sh.excl.Neighbors(i) {
			j := int(j32)
			qq := qi * sh.q[j]
			if qq == 0 {
				terms[cur] = 0
				cur++
				continue
			}
			d := sh.box.MinImage(ri.Sub(w.pos[j]))
			r2 := d.Norm2()
			r := math.Sqrt(r2)
			e := math.Erf(alpha*r) / r
			terms[cur] = 0.5 * qq * e
			cur++
			fr := qq * (alpha*ewald.TwoOverSqrtPi*math.Exp(-alpha*alpha*r2) - e) / r2 * units.Coulomb
			w.meshF[i] = w.meshF[i].Add(d.Scale(fr))
		}
	}
}

// mergeMesh folds the finished mesh force into each owned atom's total,
// the serial per-atom merge order (short-range + mesh).
func (w *worker) mergeMesh() {
	sp := w.o.Start(obs.StageMerge)
	for _, i := range w.sh.ownedIdx[w.rank] {
		w.frc[i] = w.frc[i].Add(w.meshF[i])
	}
	sp.Stop()
}

// slot returns the next scheduled packet of the link to dst, asserting
// its kind. The cursor advances even when the send is later dropped by a
// test hook, keeping the rest of the schedule aligned.
func (w *worker) slot(dst int, kind uint8) *packet {
	lk := w.out[dst]
	p := lk.slots[lk.cur]
	lk.cur++
	if p.kind != kind {
		panic(fmt.Sprintf("rank %d: protocol drift: slot %d of link to %d holds kind %d, want %d",
			w.rank, lk.cur-1, dst, p.kind, kind))
	}
	return p
}

// send delivers a scheduled packet; the channel has full-schedule
// capacity, so this never blocks.
func (w *worker) send(dst int, p *packet) {
	if w.testDrop != nil && w.testDrop(dst, p.kind) {
		return
	}
	w.pairBytes[dst] += packetBytes(p)
	w.out[dst].ch <- p
}

// recv blocks for the next packet from src, asserting its scheduled
// kind; a shared abort unwinds the round instead.
func (w *worker) recv(src int, kind uint8) *packet {
	select {
	case p := <-w.in[src].ch:
		if p.kind != kind {
			panic(fmt.Sprintf("rank %d: protocol drift: packet from %d is kind %d, want %d",
				w.rank, src, p.kind, kind))
		}
		return p
	case <-w.sh.abort:
		panic(abortSignal{})
	}
}

// abortAll trips the shared abort latch, unblocking every rank's
// receives.
func (sh *shared) abortAll() { sh.abortOnce() }
