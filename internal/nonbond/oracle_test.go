package nonbond

// The oracle of the pair list: the cell-path slab body that the skin-0
// VerletList replaced, kept verbatim apart from its names. It traverses the
// cell list one slab at a time and evaluates each pair as the traversal
// finds it — no stored list — and records a reaction force owed to another
// slab in that slab's deferred list, which is applied after every slab has
// run. It rounds the displacement differently from the list (difference of
// wrapped positions against minimum image of a difference) and sums in a
// different order, so the two agree to rounding, not to the bit; the pair
// sets must be identical (TestSkin0ListMatchesOracle).

import (
	"tme4a/internal/celllist"
	"tme4a/internal/topol"
	"tme4a/internal/vec"
)

// oracleDeferred is a Newton-pair reaction force owed to atom J of the slab
// above the one that recorded it.
type oracleDeferred struct {
	J int32
	F vec.V
}

// oracleScratch holds the deferred-force lists of the slab body, one per
// slab evaluated.
type oracleScratch struct {
	// def[k] collects the reaction forces the k-th evaluated slab owes the
	// slab above it.
	def [][]oracleDeferred
}

// slab is the one slab body of the list-free paths: it traverses slab s,
// writing forces only into atoms slab s owns (f may be nil for energies
// alone) and the slab's energies and pair count into *p. A reaction force
// owed to another slab goes into the dense buffer fs when there is one
// (the deleted parallel caller passed one in direct mode), else into the
// scratch's k-th deferred list. The pair kernel is composed in line (see
// kernel.go).
func (sc *oracleScratch) slab(cl *celllist.List, kn *kernel, pos []vec.V, q []float64, lj *LJ, excl *topol.Exclusions, f, fs []vec.V, p *SlabPartial, s, k int) {
	*p = SlabPartial{}
	def := sc.def[k][:0]
	cl.ForEachPairInSlab(s, pos, func(i, j int, d vec.V, r2 float64, tgt int) {
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
				def = append(def, oracleDeferred{int32(j), fv})
			}
		}
	})
	sc.def[k] = def
}

// applyOracleDeferred subtracts the reaction forces in def from f in list
// order, the order the recording slab enumerated them.
func applyOracleDeferred(f []vec.V, def []oracleDeferred) {
	for _, e := range def {
		f[e.J] = f[e.J].Sub(e.F)
	}
}

// OracleCompute evaluates the short-range term of every non-excluded pair
// within rc by running the slab body serially over every slab of a fresh
// cell list, then applying the deferred lists in ascending source slab.
func OracleCompute(box vec.Box, pos []vec.V, q []float64, lj *LJ, alpha, rc float64, excl *topol.Exclusions, f []vec.V) Result {
	cl := celllist.Build(box, rc, pos)
	ns := cl.Slabs()
	sc := oracleScratch{def: make([][]oracleDeferred, ns)}
	part := make([]SlabPartial, ns)
	kn := kernelFor(alpha, rc)
	for s := 0; s < ns; s++ {
		sc.slab(cl, kn, pos, q, lj, excl, f, nil, &part[s], s, s)
	}
	for s := 0; s < ns; s++ {
		applyOracleDeferred(f, sc.def[s])
	}
	return FoldSlabs(part)
}
