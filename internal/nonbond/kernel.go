package nonbond

import (
	"math"
	"sync"

	"tme4a/internal/r2tab"
	"tme4a/internal/units"
)

// The Coulomb table spans r from 1/32 nm — inside any physical contact, so
// only synthetic overlaps fall below it — up to the cutoff, capped at 16 nm
// to bound the footprint of an absurd cutoff; pairs outside take the
// analytic kernel. At rc = 1.0 nm that is ten octaves: 1281 entries, 80 KB.
const (
	tableRMin2 = 1.0 / (32 * 32)
	tableRMax2 = 16.0 * 16
)

// kernel is the pair kernel for one (α, rc): the Coulomb energy
// E(s) = C·erfc(α√s)/√s and force factor F(s) = −2 dE/ds per unit charge
// product, tabulated in s = r². α = 0 (plain Coulomb) is the same table of a
// different function, not a second code path. Immutable and shared.
type kernel struct {
	alpha, rc float64
	tab       *r2tab.Table
}

func newKernel(alpha, rc float64) *kernel {
	sMax := rc * rc
	if !(sMax < tableRMax2) {
		sMax = tableRMax2
	}
	// Both allocations below happen when (α, rc) changes, never on a
	// steady-state step.
	gen := func(s float64) (e, f float64) { //tmevet:ignore noalloc -- once per table
		e, _, f = pairEval(1, nil, 0, 0, alpha, s)
		return e, f
	}
	return &kernel{alpha: alpha, rc: rc, tab: r2tab.New(gen, tableRMin2, sMax)} //tmevet:ignore noalloc -- once per table
}

// lastKernel remembers the most recently built kernel so that the lists of
// one run — a force field's, every rank's of a rank engine — share one
// table. Only one is retained: engines hold their own
// reference, and a table is garbage once its last engine and this slot
// have let go of it.
var lastKernel struct {
	sync.Mutex
	k *kernel
}

// kernelFor returns the kernel for (alpha, rc), building it on a miss. The
// build runs under the lock so concurrent first callers (the ranks' first
// step) wait for one table instead of building one each.
func kernelFor(alpha, rc float64) *kernel {
	lastKernel.Lock()
	defer lastKernel.Unlock()
	if !lastKernel.k.is(alpha, rc) {
		lastKernel.k = newKernel(alpha, rc)
	}
	return lastKernel.k
}

// is reports whether k is the kernel for (alpha, rc); false on nil.
func (k *kernel) is(alpha, rc float64) bool {
	return k != nil && k.alpha == alpha && k.rc == rc
}

// The pair kernel. A pair at squared distance r2 ≤ rc² with charge product
// qq has Coulomb energy eC = qq·E(r2) and radial force factor fr = qq·F(r2)
// — the cubic of the table segment holding r2 (coulomb), or the analytic
// kernel below the table (coulombOut) — and, when both atoms are LJ sites
// (LJ.site), adds the Lennard-Jones energy and force factor of ljEval to
// them; F_i = fr·d and F_j = −fr·d. Each piece is written once, here and in
// r2tab. The compiler inlines the segment fetch, the cubic and ljEval one by
// one but not their sum (budget 80), so the pair loop, VerletList.bucket,
// composes them in line, in this order, and calls nothing on the in-table
// path:
//
//	var eC, eLJ, fr float64
//	if c, d := k.tab.Segment(r2); c != nil {
//		eC, fr = coulomb(qq, c, d)
//	} else {
//		eC, fr = k.coulombOut(qq, r2)
//	}
//	if lj.site(i, j) {
//		var fl float64
//		eLJ, fl = ljEval(lj, i, j, 1/r2)
//		fr += fl
//	}
//
// tier1.sh fails if any of those calls stops being inlined.

// coulomb is the Coulomb term of a pair inside the table: segment c at
// offset d. A pair with qq = 0 gets ±0, which no energy sum or force test
// can tell from the +0 of skipping it.
//
//tme:noalloc
func coulomb(qq float64, c *r2tab.Segment, d float64) (eC, fr float64) {
	e, f := c.Cubic(d)
	return qq * e, qq * f
}

// coulombOut is the Coulomb term of a pair outside the table, where Lookup
// falls back to the analytic kernel. An uncharged pair is skipped, so
// coincident uncharged atoms do not turn 0·∞ into NaN.
//
//tme:noalloc
func (k *kernel) coulombOut(qq, r2 float64) (eC, fr float64) {
	if qq == 0 {
		return 0, 0
	}
	e, f := k.tab.Lookup(r2)
	return qq * e, qq * f
}

// site reports whether atoms i and j both carry an LJ site.
func (lj *LJ) site(i, j int) bool {
	return lj != nil && lj.Eps[i] != 0 && lj.Eps[j] != 0
}

// ljEval is the closed-form Lennard-Jones term of a pair of LJ sites under
// Lorentz–Berthelot mixing, given inv2 = 1/r².
//
//tme:noalloc
func ljEval(lj *LJ, i, j int, inv2 float64) (e, fr float64) {
	eps := math.Sqrt(lj.Eps[i] * lj.Eps[j])
	sig := 0.5 * (lj.Sigma[i] + lj.Sigma[j])
	sr2 := sig * sig * inv2
	sr6 := sr2 * sr2 * sr2
	sr12 := sr6 * sr6
	return 4 * eps * (sr12 - sr6), 24 * eps * (2*sr12 - sr6) * inv2
}

// pairEval is the analytic erfc-screened Coulomb + Lennard-Jones kernel:
// the generator of the table, the fallback outside its range, and the
// oracle of the tests. Same contract as the pair kernel.
func pairEval(qq float64, lj *LJ, i, j int, alpha, r2 float64) (eC, eLJ, fr float64) {
	r := math.Sqrt(r2)
	inv2 := 1 / r2
	if qq != 0 {
		eC = qq * math.Erfc(alpha*r) / r * units.Coulomb
		fr = (eC + qq*units.Coulomb*alpha*twoOverSqrtPi*math.Exp(-alpha*alpha*r2)) * inv2
	}
	if lj.site(i, j) {
		var fl float64
		eLJ, fl = ljEval(lj, i, j, inv2)
		fr += fl
	}
	return eC, eLJ, fr
}

const twoOverSqrtPi = 2 / 1.7724538509055160273
