// Package nonbond computes the short-range nonbonded interactions: the
// real-space (erfc-screened) Coulomb term of Ewald-split electrostatics and
// Lennard-Jones dispersion/repulsion, over one pair list, VerletList.
//
// This is the computation the MDGRAPE-4A "nonbond pipelines" perform: 64
// dedicated pipelines per SoC evaluating one pair interaction per cycle,
// over a single stream of pairs whatever builds it. The cycle model of
// those pipelines lives in internal/hw; this package is the numerical
// implementation. A buffered run (Skin > 0) reuses the list across steps;
// an unbuffered one (Skin = 0) rebuilds it every step; the rank engine
// builds and evaluates it over its own slab range (RebuildRange). All of
// them evaluate pairs in the one loop, VerletList.bucket.
//
// # Parallel determinism
//
// VerletList is bucketed by the cell list's ownership slabs
// (celllist.List.Slabs) and parallelized over them with the same guarantee
// the mesh pipeline gives: results are bitwise identical at any GOMAXPROCS.
// Each slab's worker accumulates forces only into atoms its slab owns, in
// a fixed enumeration order; the Newton-pair reaction forces that land in
// a foreign slab are recorded beside their pair bucket and applied by the
// owning slab in a second pass, in fixed source-slab order. Energies and
// pair counts reduce over per-slab padded partials in ascending slab order
// (FoldSlabs). No atomics, no per-worker force arrays.
//
// # Pair kernel
//
// The pair loop evaluates a pair with the one kernel in kernel.go, inlined
// into it: the Coulomb energy and force factor come from a segmented cubic
// table in r² (internal/r2tab, the datapath of the hardware pipelines),
// Lennard-Jones from its closed form. The analytic erfc/exp kernel
// (pairEval) generates the table, takes the pairs below its range, and is
// the oracle the tests compare against.
package nonbond

import (
	"tme4a/internal/celllist"
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

// SlabPartial is one slab's short-range energy/pair-count accumulator,
// padded to a cache line so concurrent slab workers never share one.
type SlabPartial struct {
	ECoul, ELJ float64
	Pairs      int
	_          [5]float64
}

// FoldSlabs reduces per-slab partials in ascending slab order, the one
// order every engine's Result is summed in.
func FoldSlabs(part []SlabPartial) Result {
	var res Result
	for s := range part {
		res.ECoul += part[s].ECoul
		res.ELJ += part[s].ELJ
		res.Pairs += part[s].Pairs
	}
	return res
}

// ComputeWithList evaluates the short-range interactions of every
// non-excluded pair within cl.Cutoff, accumulating forces into f (may be
// nil); alpha = 0 is plain Coulomb. It is a one-shot skin-0 VerletList:
// only cl's cutoff is read, and the list is built afresh, allocating, on
// every call. It remains as the entry point of the benchmark's
// nonbond.cellpath_ms probe; a stepping caller holds a VerletList.
func ComputeWithList(cl *celllist.List, box vec.Box, pos []vec.V, q []float64, lj *LJ, alpha float64, excl *topol.Exclusions, f []vec.V) Result {
	v := NewVerletList(box, cl.Cutoff, 0)
	v.Rebuild(pos, excl)
	return v.Compute(pos, q, lj, alpha, f)
}
