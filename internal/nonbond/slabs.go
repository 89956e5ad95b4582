// Slab-range evaluation for the rank-decomposed run mode (internal/rank).
//
// A rank owns the contiguous slab range [s0, s1) of the cell list and
// evaluates exactly the pairs ComputeWithList attributes to those slabs,
// with identical per-pair arithmetic and per-atom accumulation order. The
// z-major half stencil defers cross-slab reaction forces only to slab s+1
// (mod ns), so a range's external traffic is a single deferred-force list
// shipped to the next rank and one received from the previous rank; energy
// partials per slab travel to the root, which folds them in ascending slab
// order — the serial reduction — to reconstruct Result bitwise.

package nonbond

import (
	"tme4a/internal/celllist"
	"tme4a/internal/topol"
	"tme4a/internal/vec"
)

// SlabPartial is one slab's short-range energy/pair-count partial; fold
// ECoul/ELJ/Pairs over all slabs in ascending slab order to reconstruct
// Result exactly.
type SlabPartial struct {
	ECoul, ELJ float64
	Pairs      int
}

// Deferred is a Newton-pair reaction force owed to atom J of the slab
// above the range that recorded it.
type Deferred struct {
	J int32
	F vec.V
}

// SlabScratch holds the per-range deferred-force lists of
// ComputeSlabRange; reuse one per rank so steady-state calls allocate
// nothing once the lists have grown.
type SlabScratch struct {
	// def[k] collects the reaction forces slab s0+k owes slab s0+k+1.
	def [][]Deferred
}

func (sc *SlabScratch) reset(n int) {
	if cap(sc.def) < n {
		old := sc.def
		sc.def = make([][]Deferred, n)
		copy(sc.def, old)
	}
	sc.def = sc.def[:n]
	for i := range sc.def {
		sc.def[i] = sc.def[i][:0]
	}
}

// ComputeSlabRange evaluates the pairs owned by cell-mode slabs [s0, s1)
// of cl, accumulating forces into f (full-length, global atom indices) and
// writing slab s0+k's energy partial into part[k] (len(part) ≥ s1−s0).
// Reaction forces between in-range slabs are applied internally in the
// serial order (after all slabs' owner passes, ascending source slab);
// those owed to slab s1 mod ns are returned for the caller to ship to that
// slab's owner, whose ApplyDeferred call must run after its own owner pass
// — the same phase order ComputeWithList uses. The caller zeroes f for the
// atoms of layers [s0, s1) beforehand (ComputeWithList zeroes the whole
// array via the force field).
func ComputeSlabRange(cl *celllist.List, pos []vec.V, q []float64, lj *LJ, alpha float64, excl *topol.Exclusions, f []vec.V, part []SlabPartial, sc *SlabScratch, s0, s1 int) []Deferred {
	n := s1 - s0
	sc.reset(n)
	kn := kernelFor(alpha, cl.Cutoff)
	for s := s0; s < s1; s++ {
		k := s - s0
		p := &part[k]
		*p = SlabPartial{}
		def := sc.def[k]
		cl.ForEachPairInSlab(s, pos, func(i, j int, d vec.V, r2 float64, tgt int) {
			if excl.Excluded(i, j) {
				return
			}
			p.Pairs++
			eC, eLJ, fr := kn.pair(q[i]*q[j], lj, i, j, r2)
			p.ECoul += eC
			p.ELJ += eLJ
			if fr != 0 {
				fv := d.Scale(fr)
				f[i] = f[i].Add(fv)
				if tgt == s {
					f[j] = f[j].Sub(fv)
				} else {
					def = append(def, Deferred{int32(j), fv})
				}
			}
		})
		sc.def[k] = def
	}
	// In-range deferred pass: slab s0+k's list targets slab s0+k+1. Applied
	// after every owner pass, ascending source — the applyDeferred order.
	for k := 0; k+1 < n; k++ {
		ApplyDeferred(f, sc.def[k])
	}
	return sc.def[n-1]
}

// ApplyDeferred subtracts the reaction forces in def from f in list order
// — the order the recording slab enumerated them, which is the order the
// serial applyDeferred pass replays them in.
func ApplyDeferred(f []vec.V, def []Deferred) {
	for _, e := range def {
		f[e.J] = f[e.J].Sub(e.F)
	}
}
