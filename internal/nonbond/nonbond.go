// Package nonbond computes the short-range nonbonded interactions: the
// real-space (erfc-screened) Coulomb term of Ewald-split electrostatics and
// Lennard-Jones dispersion/repulsion, over a linked-cell pair list.
//
// This is the computation the MDGRAPE-4A "nonbond pipelines" perform: 64
// dedicated pipelines per SoC evaluating one pair interaction per cycle.
// The cycle model of those pipelines lives in internal/hw; this package is
// the numerical implementation.
//
// # Parallel determinism
//
// ComputeWithList and VerletList.Compute are parallelized over the cell
// list's ownership slabs (celllist.List.Slabs) with the same guarantee the
// mesh pipeline gives: results are bitwise identical at any GOMAXPROCS.
// Each slab's worker accumulates forces only into atoms its slab owns, in
// a fixed enumeration order; the Newton-pair reaction forces that land in
// a foreign slab are recorded in per-slab deferred buffers and applied by
// the owning slab in a second pass, in fixed source-slab order. Energies,
// virial-style sums and pair counts reduce over per-slab padded partials
// in ascending slab order. No atomics, no per-worker force arrays.
//
// # Pair kernel
//
// Every path — VerletList.Compute, ComputeWithList, ComputeSlabRange —
// evaluates a pair through the one kernel in kernel.go: the Coulomb energy
// and force factor come from a segmented cubic table in r² (internal/r2tab,
// the datapath of the hardware pipelines), Lennard-Jones from its closed
// form. The analytic erfc/exp kernel (pairEval) generates the table, takes
// the pairs below its range, and is the oracle the tests compare against.
package nonbond

import (
	"sync"

	"tme4a/internal/celllist"
	"tme4a/internal/par"
	"tme4a/internal/topol"
	"tme4a/internal/vec"
)

// LJ holds per-atom Lennard-Jones parameters; atoms with Eps == 0 carry no
// LJ site. Pair parameters follow Lorentz–Berthelot combining rules.
type LJ struct {
	Sigma []float64 // nm
	Eps   []float64 // kJ/mol
}

// Result reports the short-range energy components in kJ/mol.
type Result struct {
	ECoul float64 // erfc-screened Coulomb
	ELJ   float64 // Lennard-Jones
	Pairs int     // interacting pairs evaluated (within cutoff)
}

// slabPartial is one slab's energy/pair-count accumulator, padded to a
// cache line so concurrent slab workers never share one.
type slabPartial struct {
	eCoul, eLJ float64
	pairs      int
	_          [5]float64
}

// deferredForce is a Newton-pair reaction force destined for an atom in a
// foreign slab, applied by that slab's worker in the second pass.
type deferredForce struct {
	j int32
	f vec.V
}

// pairScratch holds the per-call slab partials and deferred-force buffers
// of ComputeWithList, recycled through scratchPool so steady-state calls
// allocate nothing.
type pairScratch struct {
	part []slabPartial
	// def[src*ns+tgt] collects the reaction forces slab src owes slab tgt.
	// Used in cell mode, where cross-slab pairs are the thin boundary-layer
	// minority and only tgt = src+1 (mod ns) is populated.
	def []([]deferredForce)
	// dense[src] is slab src's private full-length reaction-force buffer,
	// used in direct mode instead of def: there nearly every pair crosses a
	// block boundary, and a dense accumulator costs one vector write per
	// pair (like the serial f[j] update) where per-pair deferred entries
	// would dominate the runtime. Direct mode caps the slab count at 32, so
	// the footprint stays bounded at ns·n vectors.
	dense [][]vec.V
}

var scratchPool = sync.Pool{New: func() interface{} { return new(pairScratch) }}

func (sc *pairScratch) reset(ns int) {
	if cap(sc.part) < ns {
		sc.part = make([]slabPartial, ns)
	}
	sc.part = sc.part[:ns]
	for i := range sc.part {
		sc.part[i] = slabPartial{}
	}
	need := ns * ns
	if cap(sc.def) < need {
		old := sc.def
		sc.def = make([][]deferredForce, need)
		// Keep the grown buffers of previous calls alive.
		copy(sc.def, old)
	}
	sc.def = sc.def[:need]
	for i := range sc.def {
		sc.def[i] = sc.def[i][:0]
	}
}

// resetDense sizes and zeroes the direct-mode dense reaction buffers.
func (sc *pairScratch) resetDense(ns, n int) {
	if cap(sc.dense) < ns {
		old := sc.dense
		sc.dense = make([][]vec.V, ns)
		copy(sc.dense, old)
	}
	sc.dense = sc.dense[:ns]
	for s := range sc.dense {
		if cap(sc.dense[s]) < n {
			sc.dense[s] = make([]vec.V, n)
		}
		sc.dense[s] = sc.dense[s][:n]
		buf := sc.dense[s]
		for i := range buf {
			buf[i] = vec.V{}
		}
	}
}

// Compute evaluates short-range interactions for all non-excluded pairs
// within rc, accumulating forces into f (may be nil). alpha is the Ewald
// splitting parameter; pass alpha = 0 for plain (unscreened) Coulomb.
func Compute(box vec.Box, pos []vec.V, q []float64, lj *LJ, alpha, rc float64, excl *topol.Exclusions, f []vec.V) Result {
	cl := celllist.Build(box, rc, pos)
	return ComputeWithList(cl, box, pos, q, lj, alpha, excl, f)
}

// ComputeWithList is Compute with a prebuilt cell list (so callers stepping
// an MD trajectory can reuse the list while atoms move less than the skin).
// It is parallel and bitwise deterministic at any GOMAXPROCS (see the
// package comment) and allocation-free in steady state.
func ComputeWithList(cl *celllist.List, box vec.Box, pos []vec.V, q []float64, lj *LJ, alpha float64, excl *topol.Exclusions, f []vec.V) Result {
	ns := cl.Slabs()
	n := len(pos)
	k := kernelFor(alpha, cl.Cutoff)
	dense := cl.Direct() && f != nil
	sc := scratchPool.Get().(*pairScratch)
	sc.reset(ns)
	if dense {
		sc.resetDense(ns, n)
	}
	// Slabs are claimed one at a time (par.For): direct-mode blocks are
	// triangular, so equal contiguous ranges would leave the first worker
	// most of the pairs. Which worker runs a slab touches no result.
	if par.WorkersGrain(ns, 1) == 1 {
		if dense {
			for s := 0; s < ns; s++ {
				computeSlabDense(cl, k, pos, q, lj, excl, f, sc, s)
			}
			for m := 0; m < ns; m++ {
				applyDense(f, sc, m, ns, n)
			}
		} else {
			for s := 0; s < ns; s++ {
				computeSlab(cl, k, pos, q, lj, excl, f, sc, s, ns)
			}
			for m := 0; f != nil && m < ns; m++ {
				applyDeferred(f, sc, m, ns)
			}
		}
	} else if dense {
		par.For(ns, func(s int) {
			computeSlabDense(cl, k, pos, q, lj, excl, f, sc, s)
		})
		par.For(ns, func(m int) {
			applyDense(f, sc, m, ns, n)
		})
	} else {
		par.For(ns, func(s int) {
			computeSlab(cl, k, pos, q, lj, excl, f, sc, s, ns)
		})
		if f != nil {
			par.For(ns, func(m int) {
				applyDeferred(f, sc, m, ns)
			})
		}
	}
	var res Result
	for s := 0; s < ns; s++ {
		res.ECoul += sc.part[s].eCoul
		res.ELJ += sc.part[s].eLJ
		res.Pairs += sc.part[s].pairs
	}
	scratchPool.Put(sc)
	return res
}

// computeSlab traverses slab s, writing forces only into atoms slab s owns
// and deferring cross-slab reaction forces.
func computeSlab(cl *celllist.List, k *kernel, pos []vec.V, q []float64, lj *LJ, excl *topol.Exclusions, f []vec.V, sc *pairScratch, s, ns int) {
	p := &sc.part[s]
	base := s * ns
	cl.ForEachPairInSlab(s, pos, func(i, j int, d vec.V, r2 float64, tgt int) {
		if excl.Excluded(i, j) {
			return
		}
		p.pairs++
		eC, eLJ, fr := k.pair(q[i]*q[j], lj, i, j, r2)
		p.eCoul += eC
		p.eLJ += eLJ
		if f != nil && fr != 0 {
			fv := d.Scale(fr)
			f[i] = f[i].Add(fv)
			if tgt == s {
				f[j] = f[j].Sub(fv)
			} else {
				sc.def[base+tgt] = append(sc.def[base+tgt], deferredForce{int32(j), fv})
			}
		}
	})
}

// computeSlabDense is the direct-mode variant of computeSlab: cross-block
// reaction forces accumulate into the slab's dense private buffer instead
// of per-pair deferred entries.
func computeSlabDense(cl *celllist.List, k *kernel, pos []vec.V, q []float64, lj *LJ, excl *topol.Exclusions, f []vec.V, sc *pairScratch, s int) {
	p := &sc.part[s]
	fs := sc.dense[s]
	cl.ForEachPairInSlab(s, pos, func(i, j int, d vec.V, r2 float64, tgt int) {
		if excl.Excluded(i, j) {
			return
		}
		p.pairs++
		eC, eLJ, fr := k.pair(q[i]*q[j], lj, i, j, r2)
		p.eCoul += eC
		p.eLJ += eLJ
		if fr != 0 {
			fv := d.Scale(fr)
			f[i] = f[i].Add(fv)
			if tgt == s {
				f[j] = f[j].Sub(fv)
			} else {
				fs[j] = fs[j].Sub(fv)
			}
		}
	})
}

// applyDense folds the dense reaction buffers into the atoms of target
// slab m, scanning source slabs in ascending order. Direct-mode blocks
// follow atom order with i < j, so only sources below the target ever
// contribute.
func applyDense(f []vec.V, sc *pairScratch, m, ns, n int) {
	c := (n + ns - 1) / ns
	lo, hi := m*c, (m+1)*c
	if hi > n {
		hi = n
	}
	for src := 0; src < m; src++ {
		fs := sc.dense[src]
		for j := lo; j < hi; j++ {
			f[j] = f[j].Add(fs[j])
		}
	}
}

// applyDeferred applies the deferred reaction forces owed to target slab m,
// scanning source slabs in ascending order so each atom's accumulation
// order is fixed.
func applyDeferred(f []vec.V, sc *pairScratch, m, ns int) {
	for src := 0; src < ns; src++ {
		if src == m {
			continue
		}
		for _, e := range sc.def[src*ns+m] {
			f[e.j] = f[e.j].Sub(e.f)
		}
	}
}
