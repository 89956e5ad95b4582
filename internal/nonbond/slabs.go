// The cell-mode slab body, and its slab-range entry point for the
// rank-decomposed run mode (internal/rank).
//
// ComputeWithList runs the body over every slab of the list; a rank owns
// the contiguous slab range [s0, s1) and runs it over exactly those. The
// z-major half stencil defers cross-slab reaction forces only to slab s+1
// (mod ns), so a range's external traffic is a single deferred-force list
// shipped to the next rank and one received from the previous rank; energy
// partials per slab travel to the root, which folds them with FoldSlabs,
// the fold ComputeWithList itself ends with.

package nonbond

import (
	"tme4a/internal/celllist"
	"tme4a/internal/topol"
	"tme4a/internal/vec"
)

// SlabPartial is one slab's short-range energy/pair-count accumulator,
// padded to a cache line so concurrent slab workers — which bump it once
// per pair — never share one.
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

// Deferred is a Newton-pair reaction force owed to atom J of the slab
// above the one that recorded it.
type Deferred struct {
	J int32
	F vec.V
}

// SlabScratch holds the deferred-force lists of the slab body, one per
// slab evaluated; reuse one per rank so steady-state calls allocate
// nothing once the lists have grown.
type SlabScratch struct {
	// def[k] collects the reaction forces the k-th evaluated slab owes the
	// slab above it.
	def [][]Deferred
}

func (sc *SlabScratch) reset(n int) {
	if cap(sc.def) < n {
		old := sc.def
		sc.def = make([][]Deferred, n) //tmevet:ignore noalloc -- grow-once: sized to the slab count, lists kept across calls
		copy(sc.def, old)
	}
	sc.def = sc.def[:n]
}

// slab is the one slab body of the list-free paths: it traverses slab s,
// writing forces only into atoms slab s owns (f may be nil for energies
// alone) and the slab's energies and pair count into *p. A reaction force
// owed to another slab goes into the dense buffer fs when there is one
// (direct mode, see pairScratch.dense), else into the scratch's k-th
// deferred list. The pair kernel is composed in line (see kernel.go).
func (sc *SlabScratch) slab(cl *celllist.List, kn *kernel, pos []vec.V, q []float64, lj *LJ, excl *topol.Exclusions, f, fs []vec.V, p *SlabPartial, s, k int) {
	*p = SlabPartial{}
	def := sc.def[k][:0]
	cl.ForEachPairInSlab(s, pos, func(i, j int, d vec.V, r2 float64, tgt int) { //tmevet:ignore noalloc -- the closure does not escape ForEachPairInSlab; TestComputeWithListSteadyStateAllocs holds it at 0
		if excl.Excluded(i, j) {
			return
		}
		p.Pairs++
		qq := q[i] * q[j]
		var eC, eLJ, fr float64
		if c, dt := kn.tab.Segment(r2); c != nil {
			eC, fr = coulomb(qq, c, dt)
		} else {
			eC, fr = kn.coulombOut(qq, r2)
		}
		if lj.site(i, j) {
			var fl float64
			eLJ, fl = ljEval(lj, i, j, 1/r2)
			fr += fl
		}
		p.ECoul += eC
		p.ELJ += eLJ
		if f != nil && fr != 0 {
			fv := d.Scale(fr)
			f[i] = f[i].Add(fv)
			switch {
			case tgt == s:
				f[j] = f[j].Sub(fv)
			case fs != nil:
				fs[j] = fs[j].Sub(fv)
			default:
				def = append(def, Deferred{int32(j), fv}) //tmevet:ignore noalloc -- grow-once: the list keeps its capacity across calls
			}
		}
	})
	sc.def[k] = def
}

// ComputeSlabRange evaluates the pairs owned by cell-mode slabs [s0, s1)
// of cl, accumulating forces into f (full-length, global atom indices; nil
// for energies alone) and writing slab s0+k's energy partial into part[k]
// (len(part) ≥ s1−s0). Reaction forces between in-range slabs are applied
// internally, after all slabs' owner passes in ascending source slab;
// those owed to slab s1 mod ns are returned for the caller to ship to that
// slab's owner, whose ApplyDeferred call must run after its own owner pass
// — the phase order ComputeWithList uses. The caller zeroes f for the
// atoms of layers [s0, s1) beforehand (ComputeWithList zeroes the whole
// array via the force field).
func ComputeSlabRange(cl *celllist.List, pos []vec.V, q []float64, lj *LJ, alpha float64, excl *topol.Exclusions, f []vec.V, part []SlabPartial, sc *SlabScratch, s0, s1 int) []Deferred {
	n := s1 - s0
	sc.reset(n)
	kn := kernelFor(alpha, cl.Cutoff)
	for k := 0; k < n; k++ {
		sc.slab(cl, kn, pos, q, lj, excl, f, nil, &part[k], s0+k, k)
	}
	for k := 0; k+1 < n; k++ {
		ApplyDeferred(f, sc.def[k])
	}
	return sc.def[n-1]
}

// ApplyDeferred subtracts the reaction forces in def from f in list order,
// the order the recording slab enumerated them.
func ApplyDeferred(f []vec.V, def []Deferred) {
	for _, e := range def {
		f[e.J] = f[e.J].Sub(e.F)
	}
}
