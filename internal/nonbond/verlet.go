package nonbond

import (
	"tme4a/internal/celllist"
	"tme4a/internal/obs"
	"tme4a/internal/par"
	"tme4a/internal/topol"
	"tme4a/internal/vec"
)

// VerletList is a buffered pair list ("Verlet list"): pairs within
// cutoff+skin are enumerated once and reused until any atom has moved more
// than skin/2, amortizing the cell-list traversal over many MD steps.
// This mirrors GROMACS' Verlet scheme (the paper's reference runs use
// verlet-buffer-tolerance) and the import-region buffering of the
// MDGRAPE-4A cells. Skin = 0 is the unbuffered engine: the list holds the
// pairs within the cutoff and goes stale as soon as any atom moves, so a
// stepping caller rebuilds it every step.
//
// The list is stored bucketed by the cell list's ownership slabs: same[s]
// holds the pairs fully owned by slab s, cross[s*ns+t] the pairs whose
// first atom slab s owns and whose second atom slab t owns. A list owns the
// slab range [s0, s1) of its last build — every slab after Rebuild, a
// rank's slabs after RebuildRange — and fills, evaluates and applies the
// reactions of those slabs alone. Rebuild fills the buckets in parallel
// (each slab's worker writes only its own buckets) and Compute evaluates
// them with owner-only force writes plus a deferred cross-slab pass, so
// both the pair list and the computed forces/energies are bitwise
// independent of GOMAXPROCS. Steady-state Rebuild and Compute allocate
// nothing.
//
// The zero VerletList is not yet set up: Init (or NewVerletList) fixes its
// box, cutoff and skin, after which a Cutoff > 0 marks it ready, as for
// celllist.List.
type VerletList struct {
	Box    vec.Box
	Cutoff float64
	Skin   float64

	cl     celllist.List // set up by Init for cutoff+skin
	ns     int
	s0, s1 int // owned slab range of the last build
	same   [][]pair
	cross  [][]pair
	dfrc   [][]vec.V // deferred reaction forces, parallel to cross
	part   []SlabPartial
	npairs int
	ref    []vec.V // positions at build time
	n      int
	// k is the pair kernel of the last Compute, kept so a steady run looks
	// nothing up; it is replaced when alpha or Cutoff change.
	k *kernel

	// o, when non-nil, times Rebuild as the neighbor stage and counts
	// rebuilds and buffered pairs.
	o *obs.Recorder
}

// SetObs attaches a stage recorder to the list and its backing cell list
// (nil detaches). Not safe to call concurrently with Rebuild.
func (v *VerletList) SetObs(r *obs.Recorder) {
	v.o = r
	v.cl.SetObs(r)
}

type pair struct {
	i, j int32
}

// NewVerletList returns a list set up by Init; Rebuild must be called
// before use.
func NewVerletList(box vec.Box, cutoff, skin float64) *VerletList {
	v := new(VerletList)
	v.Init(box, cutoff, skin)
	return v
}

// Init sets the list up in place for box, cutoff and skin, including the
// backing cell decomposition at cutoff+skin, without enumerating any pairs;
// Rebuild must be called before use. Storage and the attached recorder are
// kept.
func (v *VerletList) Init(box vec.Box, cutoff, skin float64) {
	v.Box, v.Cutoff, v.Skin = box, cutoff, skin
	v.cl.Init(box, cutoff+skin)
}

// Rebuild regenerates the pair list of every slab from the current
// positions. The atom count may differ from the previous build; all
// internal storage is resized and reused.
func (v *VerletList) Rebuild(pos []vec.V, excl *topol.Exclusions) {
	sp := v.o.Start(obs.StageNeighbor)
	defer sp.Stop()
	v.cl.Rebuild(pos)
	v.fill(pos, excl, 0, v.cl.Slabs())
}

// RebuildRange is Rebuild for the owner of the cell-mode slabs [s0, s1)
// (internal/rank): it bins only the atoms listed in idx, ascending — the
// owned layers and the one above, through celllist.RebuildSubset — and
// fills only the owned slabs, whose buckets then equal a full Rebuild's.
// pos is the full-length position array, valid at idx.
func (v *VerletList) RebuildRange(pos []vec.V, excl *topol.Exclusions, idx []int32, s0, s1 int) {
	sp := v.o.Start(obs.StageNeighbor)
	defer sp.Stop()
	v.cl.RebuildSubset(pos, idx)
	v.fill(pos, excl, s0, s1)
}

// fill records the build positions and fills the buckets of the owned
// slabs [s0, s1) from the binned cell list.
func (v *VerletList) fill(pos []vec.V, excl *topol.Exclusions, s0, s1 int) {
	v.n = len(pos)
	if cap(v.ref) < len(pos) {
		v.ref = make([]vec.V, len(pos)) //tmevet:ignore noalloc -- grow-once: reused across rebuilds until the atom count grows
	}
	v.ref = v.ref[:len(pos)]
	copy(v.ref, pos)

	ns := v.cl.Slabs()
	v.ns, v.s0, v.s1 = ns, s0, s1
	v.same = resizeBuckets(v.same, ns)
	v.cross = resizeBuckets(v.cross, ns*ns)
	if cap(v.part) < ns {
		v.part = make([]SlabPartial, ns) //tmevet:ignore noalloc -- grow-once: sized to the slab count
	}
	v.part = v.part[:ns]
	if cap(v.dfrc) < ns*ns {
		old := v.dfrc
		v.dfrc = make([][]vec.V, ns*ns) //tmevet:ignore noalloc -- grow-once: sized to the slab count
		copy(v.dfrc, old)
	}
	v.dfrc = v.dfrc[:ns*ns]
	for b := range v.cross {
		v.cross[b] = v.cross[b][:0]
	}

	par.For(s1-s0, listJob{v: v, pos: pos, excl: excl}, listJob.fill)

	v.npairs = 0
	for s := range v.same {
		v.npairs += len(v.same[s])
	}
	for b := range v.cross {
		v.npairs += len(v.cross[b])
		// Match the bucket's capacity, not its length: bucket populations
		// fluctuate a little between rebuilds, and sizing to the exact
		// length would reallocate dfrc on every one-pair growth.
		if cap(v.dfrc[b]) < cap(v.cross[b]) {
			v.dfrc[b] = make([]vec.V, cap(v.cross[b])) //tmevet:ignore noalloc -- grow-once: follows its bucket's capacity (see above)
		}
		v.dfrc[b] = v.dfrc[b][:len(v.cross[b])]
	}
	v.o.Add(obs.CounterVerletRebuilds, 1)
	v.o.Add(obs.CounterVerletPairs, int64(v.npairs))
}

// listJob is the argument of Rebuild's and Compute's parallel bodies, which
// take the k-th owned slab, s0+k.
type listJob struct {
	v    *VerletList
	pos  []vec.V
	excl *topol.Exclusions // Rebuild
	q    []float64         // Compute
	lj   *LJ
	f    []vec.V
}

// fill collects slab s0+k's candidate pairs into its own buckets; safe to
// run concurrently for distinct slabs.
func (j listJob) fill(k int) {
	v, pos, excl := j.v, j.pos, j.excl
	s := v.s0 + k
	sm := v.same[s][:0]
	base := s * v.ns
	v.cl.ForEachPairInSlab(s, pos, func(i, j int, d vec.V, r2 float64, tgt int) { //tmevet:ignore noalloc -- the closure does not escape ForEachPairInSlab; TestVerletComputeSteadyStateAllocs holds Rebuild at 0
		if excl.Excluded(i, j) {
			return
		}
		pr := pair{int32(i), int32(j)}
		if tgt == s {
			sm = append(sm, pr) //tmevet:ignore noalloc -- grow-once: buckets keep their capacity across rebuilds
		} else {
			v.cross[base+tgt] = append(v.cross[base+tgt], pr) //tmevet:ignore noalloc -- grow-once: buckets keep their capacity across rebuilds
		}
	})
	v.same[s] = sm
}

func resizeBuckets(b [][]pair, n int) [][]pair {
	if cap(b) < n {
		old := b
		b = make([][]pair, n) //tmevet:ignore noalloc -- grow-once: sized to the slab count
		copy(b, old)
	}
	return b[:n]
}

// NeedsRebuild reports whether the list is stale: the atom count changed
// since the last Rebuild, or any atom has moved more than skin/2 (the
// standard sufficient condition for list validity) — at Skin 0, moved at
// all. The atom-count check comes first so a grown position slice is never
// compared against the shorter reference copy.
func (v *VerletList) NeedsRebuild(pos []vec.V) bool {
	if len(pos) != v.n || v.n == 0 || len(v.ref) != v.n {
		return true
	}
	lim2 := v.Skin * v.Skin / 4
	lx, ly, lz := v.Box.L[0], v.Box.L[1], v.Box.L[2]
	ix, iy, iz := 1/lx, 1/ly, 1/lz
	for i := range pos {
		p, r := &pos[i], &v.ref[i]
		dx := vec.MinImage1(p[0]-r[0], lx, ix)
		dy := vec.MinImage1(p[1]-r[1], ly, iy)
		dz := vec.MinImage1(p[2]-r[2], lz, iz)
		if dx*dx+dy*dy+dz*dz > lim2 {
			return true
		}
	}
	return false
}

// NPairs returns the current buffered pair count.
func (v *VerletList) NPairs() int { return v.npairs }

// RefPositions returns the positions the current pair list was built from
// (nil before the first Rebuild). Checkpointing captures this slice so a
// resumed run can re-run Rebuild at exactly the build-time positions:
// Rebuild is a pure function of (positions, exclusions), so re-priming
// from the reference reproduces the pair buckets — and hence the per-pair
// summation order — bitwise, instead of forcing a fresh build at the
// resume positions that would reorder the sums. Callers must not mutate
// the returned slice.
func (v *VerletList) RefPositions() []vec.V {
	if v == nil || v.n == 0 {
		return nil
	}
	return v.ref[:v.n]
}

// Compute evaluates the short-range interactions of the owned slabs over
// the buffered list (pairs beyond the true cutoff are skipped),
// accumulating forces into f, and applies the reactions the owned slabs
// owe each other. Exclusions were applied at Rebuild time. Parallel over
// slabs, bitwise deterministic at any GOMAXPROCS, and allocation-free.
//
//tme:noalloc
func (v *VerletList) Compute(pos []vec.V, q []float64, lj *LJ, alpha float64, f []vec.V) Result {
	if !v.k.is(alpha, v.Cutoff) {
		v.k = kernelFor(alpha, v.Cutoff)
	}
	j := listJob{v: v, pos: pos, q: q, lj: lj, f: f}
	par.For(v.s1-v.s0, j, listJob.eval)
	if f != nil {
		par.For(v.s1-v.s0, j, listJob.apply)
	}
	return FoldSlabs(v.Partials())
}

// Partials returns the owned slabs' energy partials from the last Compute,
// slab s0 first.
func (v *VerletList) Partials() []SlabPartial { return v.part[v.s0:v.s1] }

// AppendOwed appends to idx and fv the reaction forces the last Compute of
// a RebuildRange list owes the slab above its range, s1 mod ns: atom j and
// the force to subtract from f[j], in the order the slab's owner subtracts
// them after its own Compute. In cell mode only slab s1−1 has pairs there.
// A list that owns every slab owes nothing.
func (v *VerletList) AppendOwed(idx []int32, fv []vec.V) ([]int32, []vec.V) {
	if v.s1-v.s0 == v.ns {
		return idx, fv
	}
	b := (v.s1-1)*v.ns + v.s1%v.ns
	for n, pr := range v.cross[b] {
		idx = append(idx, pr.j)
		fv = append(fv, v.dfrc[b][n])
	}
	return idx, fv
}

// eval evaluates slab s0+k's buckets in a fixed order — the same-slab
// bucket, then the cross buckets by ascending target — into one running
// partial.
//
//tme:noalloc
func (j listJob) eval(k int) {
	v := j.v
	s := v.s0 + k
	var p SlabPartial
	v.bucket(&p, v.same[s], nil, j.pos, j.q, j.lj, j.f)
	base := s * v.ns
	for tgt := 0; tgt < v.ns; tgt++ {
		if tgt != s {
			b := base + tgt
			v.bucket(&p, v.cross[b], v.dfrc[b][:len(v.cross[b])], j.pos, j.q, j.lj, j.f)
		}
	}
	v.part[s] = p
}

// bucket evaluates one pair bucket, continuing the running partial p. The
// same-slab bucket (dst == nil) updates both force entries of a pair; a
// cross-slab bucket updates the owned side and records in dst[n] the
// reaction force owed to pair n's second atom (zero beyond the cutoff), for
// the target slab's deferred pass.
//
// The loop keeps the displacement, the accumulators and the force in scalar
// locals (see vec.MinImage1) — a vec.V temporary lives on the stack, which
// costs more than the kernel itself once the transcendentals are gone — and
// composes the pair kernel in line (see kernel.go).
//
//tme:noalloc
func (v *VerletList) bucket(p *SlabPartial, prs []pair, dst []vec.V, pos []vec.V, q []float64, lj *LJ, f []vec.V) {
	k := v.k
	rc2 := v.Cutoff * v.Cutoff
	lx, ly, lz := v.Box.L[0], v.Box.L[1], v.Box.L[2]
	ix, iy, iz := 1/lx, 1/ly, 1/lz
	eCoul, eLJsum, pairs := p.ECoul, p.ELJ, p.Pairs
	for n, pr := range prs {
		i, j := int(pr.i), int(pr.j)
		pi, pj := &pos[i], &pos[j]
		dx := vec.MinImage1(pi[0]-pj[0], lx, ix)
		dy := vec.MinImage1(pi[1]-pj[1], ly, iy)
		dz := vec.MinImage1(pi[2]-pj[2], lz, iz)
		r2 := dx*dx + dy*dy + dz*dz
		var fx, fy, fz float64
		if r2 <= rc2 {
			pairs++
			qq := q[i] * q[j]
			var eC, eLJ, fr float64
			if c, d := k.tab.Segment(r2); c != nil {
				eC, fr = coulomb(qq, c, d)
			} else {
				eC, fr = k.coulombOut(qq, r2)
			}
			if lj.site(i, j) {
				var fl float64
				eLJ, fl = ljEval(lj, i, j, 1/r2)
				fr += fl
			}
			eCoul += eC
			eLJsum += eLJ
			if f != nil && fr != 0 {
				fx, fy, fz = fr*dx, fr*dy, fr*dz
				fi := &f[i]
				fi[0] += fx
				fi[1] += fy
				fi[2] += fz
				if dst == nil {
					fj := &f[j]
					fj[0] -= fx
					fj[1] -= fy
					fj[2] -= fz
				}
			}
		}
		if dst != nil {
			d := &dst[n]
			d[0], d[1], d[2] = fx, fy, fz
		}
	}
	p.ECoul, p.ELJ, p.Pairs = eCoul, eLJsum, pairs
}

// apply applies the reaction forces owed to owned slab m = s0+k by the
// other owned slabs, in ascending source-slab order.
//
//tme:noalloc
func (j listJob) apply(k int) {
	v, f := j.v, j.f
	ns, m := v.ns, v.s0+k
	for src := v.s0; src < v.s1; src++ {
		if src == m {
			continue
		}
		b := src*ns + m
		prs := v.cross[b]
		fr := v.dfrc[b][:len(prs)]
		for n, pr := range prs {
			fj, d := &f[pr.j], &fr[n]
			fj[0] -= d[0]
			fj[1] -= d[1]
			fj[2] -= d[2]
		}
	}
}
