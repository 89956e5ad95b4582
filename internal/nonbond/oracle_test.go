package nonbond

// The oracle of the pair list: the cell-path body that the skin-0 list
// replaced. It evaluates each pair as the cell-list traversal finds it —
// no stored list, no clusters — with the same kernel pieces. It rounds the
// displacement differently from the list (difference of wrapped positions
// against the list's cluster images) and sums in a different order, so the
// two agree to rounding, not to the bit; the pair sets must be identical
// (TestSkin0ListMatchesOracle).

import (
	"tme4a/internal/celllist"
	"tme4a/internal/topol"
	"tme4a/internal/vec"
)

// OracleCompute evaluates the short-range term of every non-excluded pair
// within rc over a fresh cell list, accumulating forces into f (may be
// nil).
func OracleCompute(box vec.Box, pos []vec.V, q []float64, lj *LJ, alpha, rc float64, excl *topol.Exclusions, f []vec.V) Result {
	kn := kernelFor(alpha, rc)
	var res Result
	celllist.Build(box, rc, pos).ForEachPair(pos, func(i, j int, d vec.V, r2 float64) {
		if excl.Excluded(i, j) {
			return
		}
		res.Pairs++
		qq := q[i] * q[j]
		var eC, eLJ, fr float64
		if c, dt := kn.tab.Segment(r2); c != nil {
			eC, fr = coulomb(qq, c, dt)
		} else {
			eC, fr = kn.coulombOut(qq, r2)
		}
		if lj.site(i, j) {
			var fl float64
			eLJ, fl = ljEval(lj.Eps[i]*lj.Eps[j], lj.Sigma[i]+lj.Sigma[j], 1/r2)
			fr += fl
		}
		res.ECoul += eC
		res.ELJ += eLJ
		if f != nil {
			fv := d.Scale(fr)
			f[i] = f[i].Add(fv)
			f[j] = f[j].Sub(fv)
		}
	})
	return res
}
