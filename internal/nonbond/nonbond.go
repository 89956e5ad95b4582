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
// evaluates a pair with the one kernel in kernel.go, inlined into its pair
// loop: the Coulomb energy and force factor come from a segmented cubic
// table in r² (internal/r2tab, the datapath of the hardware pipelines),
// Lennard-Jones from its closed form. The analytic erfc/exp kernel
// (pairEval) generates the table, takes the pairs below its range, and is
// the oracle the tests compare against.
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

// pairScratch holds the per-call slab partials and reaction-force buffers
// of ComputeWithList, recycled through scratchPool so steady-state calls
// allocate nothing.
type pairScratch struct {
	SlabScratch
	part []SlabPartial
	// dense[src] is slab src's private full-length reaction-force buffer,
	// used in direct mode instead of the deferred lists: there nearly every
	// pair crosses a block boundary, and a dense accumulator costs one
	// vector write per pair (like the serial f[j] update) where per-pair
	// deferred entries would dominate the runtime. Direct mode caps the slab
	// count at 32, so the footprint stays bounded at ns·n vectors.
	dense [][]vec.V
}

var scratchPool = sync.Pool{New: func() interface{} { return new(pairScratch) }}

func (sc *pairScratch) reset(ns int) {
	sc.SlabScratch.reset(ns)
	if cap(sc.part) < ns {
		sc.part = make([]SlabPartial, ns) //tmevet:ignore noalloc -- grow-once: pooled, sized to the slab count
	}
	sc.part = sc.part[:ns]
}

// resetDense sizes and zeroes the direct-mode dense reaction buffers.
func (sc *pairScratch) resetDense(ns, n int) {
	if cap(sc.dense) < ns {
		old := sc.dense
		sc.dense = make([][]vec.V, ns) //tmevet:ignore noalloc -- grow-once: pooled, sized to the slab count
		copy(sc.dense, old)
	}
	sc.dense = sc.dense[:ns]
	for s := range sc.dense {
		if cap(sc.dense[s]) < n {
			sc.dense[s] = make([]vec.V, n) //tmevet:ignore noalloc -- grow-once: pooled, sized to the atom count
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
	j := cellJob{sc, cl, k, pos, q, lj, excl, f, dense}
	par.For(ns, j, cellJob.slab)
	if f != nil {
		par.For(ns, j, cellJob.apply)
	}
	res := FoldSlabs(sc.part)
	scratchPool.Put(sc)
	return res
}

// cellJob is the argument of ComputeWithList's parallel bodies.
type cellJob struct {
	sc    *pairScratch
	cl    *celllist.List
	k     *kernel
	pos   []vec.V
	q     []float64
	lj    *LJ
	excl  *topol.Exclusions
	f     []vec.V
	dense bool
}

// slab runs the slab body over slab s, its reactions going to the slab's
// dense buffer in direct mode.
func (j cellJob) slab(s int) {
	var fs []vec.V
	if j.dense {
		fs = j.sc.dense[s]
	}
	j.sc.slab(j.cl, j.k, j.pos, j.q, j.lj, j.excl, j.f, fs, &j.sc.part[s], s, s)
}

// apply folds the reaction forces owed to target slab m. In deferred mode
// they all come from the layer below it. In direct mode the dense buffers
// are scanned in ascending source slab; blocks follow atom order with
// i < j, so only sources below the target ever contribute.
func (j cellJob) apply(m int) {
	ns := len(j.sc.part)
	if !j.dense {
		ApplyDeferred(j.f, j.sc.def[(m+ns-1)%ns])
		return
	}
	n := len(j.pos)
	c := (n + ns - 1) / ns
	lo, hi := m*c, min((m+1)*c, n)
	for src := 0; src < m; src++ {
		fs := j.sc.dense[src]
		for i := lo; i < hi; i++ {
			j.f[i] = j.f[i].Add(fs[i])
		}
	}
}
