// Per-rank worker goroutine: what is genuinely rank-specific — which atoms
// and planes the rank owns, the window predicates that decide what crosses a
// rank boundary, and the channel protocol that carries it. Every stage a
// round runs on that data is the function the single-process engine calls
// with one owner holding everything: md.System.KickDrift/KickConstrain,
// nonbond.VerletList over a slab range, dist.Mesh.Solve, md.MergeForces.
package rank

import (
	"fmt"

	"tme4a/internal/celllist"
	"tme4a/internal/dist"
	"tme4a/internal/grid"
	"tme4a/internal/md"
	"tme4a/internal/nonbond"
	"tme4a/internal/obs"
	"tme4a/internal/pmesh"
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

// shared is the state common to all workers: the decomposition tables, the
// link matrix and the abort latch. Built once by the engine; workers only
// read it (abortAll's latch excepted).
type shared struct {
	n     int
	r     int
	dt    float64
	alpha float64
	rc    float64

	// Slab ownership: ns cell layers split into contiguous blocks,
	// slabLo[r] .. slabLo[r+1] (slabLo has r+1 entries, last = ns).
	owner  []int32 // owning rank per atom (whole molecules)
	slabLo []int
	ns     int
	own    []md.Owned     // owned atoms and waters per rank, ascending
	cells  *celllist.List // the cell decomposition at rc, for Layer only

	// Mesh mode only (nil/zero in cutoff mode).
	plan   *dist.Plan
	mesher *pmesh.Mesher
	onz0   int // finest-grid planes per rank

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

	vl   *nonbond.VerletList // skin 0, over the rank's slab range
	mesh *dist.Mesh          // nil in cutoff mode

	// Rank 0's full top grids for the gathered SPME solve (mesh mode).
	topQ, topPhi *grid.G

	// o records rank 0's stage spans; the engine sets it between rounds.
	o *obs.Recorder

	// Test hooks, set by in-package tests between rounds: testDrop
	// suppresses matching sends (protocol-loss injection), testPanic runs
	// at the top of each round.
	testDrop  func(dst int, kind uint8) bool
	testPanic func(step int)

	// sys is the rank's view of the system: the engine's topology (box,
	// charges, masses, LJ, exclusions, waters) over private full-length
	// position, velocity and force arrays, valid at the rank's owned atoms
	// and, for positions, at the halo atoms stamped this step.
	sys *md.System //tme:owner worker.run
	own md.Owned

	step      int       //tme:owner worker.run
	stamp     []int32   //tme:owner worker.run
	shortF    []vec.V   //tme:owner worker.run
	meshF     []vec.V   //tme:owner worker.run
	etermFull []float64 //tme:owner worker.run
	old       []vec.V   //tme:owner worker.run
	cellIdx   []int32   //tme:owner worker.run
	assignIdx []int32   //tme:owner worker.run
	interpIdx []int32   //tme:owner worker.run
	commBytes int64     //tme:owner worker.run

	res *result
}

// result is a rank's per-round report. part shares its backing array with
// the worker's pair list, and pos, vel and eterm with its full-length
// state; the engine reads them only between rounds, under the
// result-channel happens-before edge.
//
//tme:owner worker.run
type result struct {
	rank      int
	err       error
	part      []nonbond.SlabPartial // owned slabs' energy partials
	pos, vel  []vec.V               // full-length; valid at owned indices
	interpIdx []int32               // atoms this rank interpolated
	eterm     []float64             // full-length per-atom energy terms
}

// newWorker builds rank r's state over the topology of top, seeded with
// its positions and velocities. Every worker-owned field is initialized
// here, in the composite literals, and never reassigned from outside the
// worker goroutine.
func newWorker(sh *shared, r int, cmds chan uint8, resCh chan *result, top *md.System) *worker {
	n := sh.n
	sys := *top
	sys.Pos = append([]vec.V(nil), top.Pos...)
	sys.Vel = append([]vec.V(nil), top.Vel...)
	sys.Frc = make([]vec.V, n)
	var mesh *dist.Mesh
	var topQ, topPhi *grid.G
	var assignIdx, interpIdx []int32
	var etermFull []float64
	var meshF []vec.V
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
	}
	var out, in []*link
	if sh.r > 1 {
		out = make([]*link, sh.r)
		in = make([]*link, sh.r)
		for p := 0; p < sh.r; p++ {
			if p != r {
				out[p] = sh.links[r][p]
				in[p] = sh.links[p][r]
			}
		}
	}
	vl := nonbond.NewVerletList(sys.Box, sh.rc, 0)
	vl.EwaldExcl = sh.plan != nil
	return &worker{
		sh:        sh,
		rank:      r,
		cmds:      cmds,
		resCh:     resCh,
		out:       out,
		in:        in,
		vl:        vl,
		mesh:      mesh,
		topQ:      topQ,
		topPhi:    topPhi,
		sys:       &sys,
		own:       sh.own[r],
		stamp:     make([]int32, n),
		shortF:    make([]vec.V, n),
		meshF:     meshF,
		etermFull: etermFull,
		old:       make([]vec.V, 3*len(sh.own[r].Waters)),
		cellIdx:   make([]int32, 0, n),
		assignIdx: assignIdx,
		interpIdx: interpIdx,
		res: &result{
			rank:  r,
			pos:   sys.Pos,
			vel:   sys.Vel,
			eterm: etermFull,
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
		w.sys.KickDrift(w.own, w.sh.dt, w.old, w.o)
		w.forceRound()
		w.sys.KickConstrain(w.own, w.sh.dt, w.o)
		sp.Stop()
	} else {
		w.forceRound()
	}
	if w.sh.plan != nil {
		w.res.interpIdx = w.interpIdx
	}
	return nil
}

// forceRound evaluates all force terms at the current positions, leaving
// sys.Frc[i] for every owned atom i equal to the serial engine's merged
// force — the body of ForceField.Compute.
func (w *worker) forceRound() {
	w.exchangePositions()
	w.buildWindows()
	w.shortRange()
	if w.sh.plan != nil {
		w.meshRound()
		sp := w.o.Start(obs.StageMerge)
		md.MergeForces(w.sys.Frc, w.meshF, nil, w.own.Atoms)
		sp.Stop()
	}
}

// needs reports whether rank dst's windows require atom i's current
// position: its short-range cell window, its assignment support or its
// interpolation base plane. The receiver re-tests the same predicates on
// delivered atoms, so the sets provably match.
func (w *worker) needs(dst, i int) bool {
	sh := w.sh
	r := w.sys.Pos[i]
	if sh.inCellWindow(dst, sh.cells.Layer(r)) {
		return true
	}
	if sh.plan != nil {
		zlo, zhi := dst*sh.onz0, (dst+1)*sh.onz0
		if sh.mesher.SupportHits(r, zlo, zhi) {
			return true
		}
		if b := sh.mesher.BasePlane(r); b >= zlo && b < zhi {
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
	owned, pos := w.own.Atoms, w.sys.Pos
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
				p.v = append(p.v, pos[i])
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
			pos[i] = p.v[k]
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
		r := w.sys.Pos[i]
		if sh.inCellWindow(w.rank, sh.cells.Layer(r)) {
			w.cellIdx = append(w.cellIdx, int32(i))
		}
		if !meshMode {
			continue
		}
		if sh.mesher.SupportHits(r, zlo, zhi) {
			w.assignIdx = append(w.assignIdx, int32(i))
		}
		if b := sh.mesher.BasePlane(r); b >= zlo && b < zhi {
			w.interpIdx = append(w.interpIdx, int32(i))
		}
	}
}

// inRange reports whether cell layer lay is one of this rank's owned
// slabs (blocks never wrap, so a plain comparison suffices).
func (w *worker) inRange(lay int) bool {
	return lay >= w.sh.slabLo[w.rank] && lay < w.sh.slabLo[w.rank+1]
}

// shortRange builds and evaluates the pair list over the rank's slab
// range, completes the reaction-force ring exchange, and routes each
// window atom's finished short force to its owner. Every atom's force is
// computed entirely by the single rank whose slab range holds its layer,
// so the owner installs one value per atom — no cross-rank summation to
// order.
func (w *worker) shortRange() {
	sh := w.sh
	sys := w.sys
	sp := w.o.Start(obs.StageShortRange)
	for _, i := range w.cellIdx {
		w.shortF[i] = vec.V{}
	}
	w.vl.RebuildRange(sys.Pos, sys.Excl, w.cellIdx, sh.slabLo[w.rank], sh.slabLo[w.rank+1])
	res := w.vl.Compute(sys.Pos, sys.Q, sys.LJ, sh.alpha, w.shortF)
	w.res.part = w.vl.Partials()
	w.o.Add(obs.CounterPairsEvaluated, int64(res.Pairs))
	if sh.r > 1 {
		nxt := (w.rank + 1) % sh.r
		p := w.slot(nxt, kindDef)
		p.idx, p.v = w.vl.AppendOwed(p.idx[:0], p.v[:0])
		w.send(nxt, p)
		pd := w.recv((w.rank-1+sh.r)%sh.r, kindDef)
		for k, i := range pd.idx {
			w.shortF[i] = w.shortF[i].Add(pd.v[k])
		}
		for dst := 0; dst < sh.r; dst++ {
			if dst == w.rank {
				continue
			}
			ps := w.slot(dst, kindShort)
			ps.idx = ps.idx[:0]
			ps.v = ps.v[:0]
			for _, i := range w.cellIdx {
				if sh.owner[i] == int32(dst) && w.inRange(sh.cells.Layer(sys.Pos[i])) {
					ps.idx = append(ps.idx, i)
					ps.v = append(ps.v, w.shortF[i])
				}
			}
			w.send(dst, ps)
		}
	}
	for _, i := range w.own.Atoms {
		if w.inRange(sh.cells.Layer(sys.Pos[i])) {
			sys.Frc[i] = w.shortF[i]
		}
	}
	if sh.r > 1 {
		for src := 0; src < sh.r; src++ {
			if src == w.rank {
				continue
			}
			p := w.recv(src, kindShort)
			for k, i := range p.idx {
				sys.Frc[i] = p.v[k]
			}
		}
	}
	sp.Stop()
}

// Halo runs one halo exchange (dist.Exchanger): pack and send the sleeves
// this rank owes (ascending destination), unpack received sleeves
// (ascending source — slot-disjoint, so order is cosmetic), then fill own
// planes.
func (w *worker) Halo(h *dist.Halo, src, ext *grid.G) {
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

// TopSolve gathers the top-level charge blocks to rank 0, runs the SPME
// top solver there, and scatters the potential blocks back
// (dist.Exchanger). The blocks are plane-major and contiguous, so the
// gathered grid is the serial solver's top grid.
func (w *worker) TopSolve(q, phi *grid.G) {
	sh := w.sh
	if w.rank != 0 {
		p := w.slot(0, kindTopQ)
		p.fl = q.Data
		w.send(0, p)
		copy(phi.Data, w.recv(0, kindTopPhi).fl)
		return
	}
	blk := len(q.Data)
	copy(w.topQ.Data[:blk], q.Data)
	for a := 1; a < sh.r; a++ {
		copy(w.topQ.Data[a*blk:(a+1)*blk], w.recv(a, kindTopQ).fl)
	}
	sh.plan.TME.TopSolver().PotentialGridInto(w.topPhi, w.topQ)
	copy(phi.Data, w.topPhi.Data[:blk])
	for a := 1; a < sh.r; a++ {
		p := w.slot(a, kindTopPhi)
		p.fl = w.topPhi.Data[a*blk : (a+1)*blk]
		w.send(a, p)
	}
}

// meshRound runs the rank's block of the TME pipeline (dist.Mesh.Solve,
// with this worker as its transport), then routes interpolated mesh forces
// to their owners.
func (w *worker) meshRound() {
	sh := w.sh
	sp := w.o.Start(obs.StageMesh)
	for _, i := range w.interpIdx {
		w.meshF[i] = vec.V{}
	}
	w.mesh.Solve(w, w.o, w.assignIdx, w.interpIdx, w.sys.Pos, w.sys.Q, w.etermFull, w.meshF)
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
	w.commBytes += packetBytes(p)
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
