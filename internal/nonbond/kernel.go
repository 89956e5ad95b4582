package nonbond

import (
	"math"
	"sync"

	"tme4a/internal/r2tab"
	"tme4a/internal/units"
)

// The Coulomb table spans r from 1/32 nm (inside any physical contact) to
// the cutoff, capped at 16 nm; pairs outside take the analytic kernel. At
// rc = 1.0 nm that is ten octaves: 1281 entries, 80 KB.
const (
	tableRMin2 = 1.0 / (32 * 32)
	tableRMax2 = 16.0 * 16
)

// kernel is the pair kernel for one (α, rc): the Coulomb energy E(s) =
// C·erfc(α√s)/√s and force factor F(s) = −2 dE/ds per unit charge product,
// tabulated in s = r² (α = 0 is plain Coulomb). Immutable and shared.
type kernel struct {
	alpha, rc float64
	tab       *r2tab.Table
}

func newKernel(alpha, rc float64) *kernel {
	sMax := rc * rc
	if !(sMax < tableRMax2) {
		sMax = tableRMax2
	}
	// Both allocations happen when (α, rc) changes, never in a steady step.
	gen := func(s float64) (e, f float64) { //tmevet:ignore noalloc -- once per table
		e, _, f = pairEval(1, nil, 0, 0, alpha, s)
		return e, f
	}
	return &kernel{alpha: alpha, rc: rc, tab: r2tab.New(gen, tableRMin2, sMax)} //tmevet:ignore noalloc -- once per table
}

// lastKernel remembers the most recently built kernel so that the lists of
// one run — a force field's, every rank's of a rank engine — share one
// table; a table is garbage once its last engine and this slot let go.
var lastKernel struct {
	sync.Mutex
	k *kernel
}

// kernelFor returns the kernel for (alpha, rc), building it on a miss under
// the lock, so concurrent first callers wait for one table.
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
// qq has Coulomb energy qq·E(r2) and radial force factor fr = qq·F(r2) —
// the cubic of the table segment holding r2 (coulomb), or the analytic
// kernel outside it (coulombOut) — plus, when both atoms are LJ sites,
// the Lennard-Jones terms of ljEval; the force on atom i is fr·(r_i − r_j).
// An excluded pair the list corrects has no LJ term and, at any distance,
// its Coulomb term turned into the correction by exclusion.
// Each piece is written once, here and in r2tab, and rounds every product
// it sums (float64(x*y)), so no architecture fuses a multiply-add. The
// compiler inlines them one by one but not their sum (budget 80), so the
// pair loop (listJob.eval) composes them in line and calls nothing on the
// in-table path; tier1.sh fails if that stops being true.

// coulomb is the Coulomb term of a pair inside the table: segment c at
// offset d. An uncharged pair gets ±0, as good as skipping it.
//
//tme:noalloc
func coulomb(qq float64, c *r2tab.Segment, d float64) (eC, fr float64) {
	eC, fr = c.Cubic(d)
	return float64(qq * eC), float64(qq * fr)
}

// coulombOut is the Coulomb term of a pair outside the table (the analytic
// kernel); an uncharged pair is skipped, so 0·∞ cannot make a NaN.
//
//tme:noalloc
func (k *kernel) coulombOut(qq, r2 float64) (eC, fr float64) {
	if qq == 0 {
		return 0, 0
	}
	e, f := k.tab.Lookup(r2)
	return qq * e, qq * f
}

// exclusion turns the screened Coulomb term (eC, fr) of an excluded pair
// at r2 into its Ewald exclusion correction, the mesh's share of the pair
// taken back: −qq·C·erf(αr)/r = qq·(E(r2) − C/r), force factor
// qq·(F(r2) − C/r³).
//
//tme:noalloc
func exclusion(qq, r2, eC, fr float64) (float64, float64) {
	c := float64(qq*units.Coulomb) / math.Sqrt(r2)
	return eC - c, fr - c/r2
}

// site reports whether atoms i and j both carry an LJ site.
func (lj *LJ) site(i, j int) bool {
	return lj != nil && lj.Eps[i] != 0 && lj.Eps[j] != 0
}

// ljEval is the Lennard-Jones term of two sites under Lorentz–Berthelot
// mixing, given their well depths' product ee, diameters' sum ss, and 1/r².
//
//tme:noalloc
func ljEval(ee, ss, inv2 float64) (e, fr float64) {
	eps := math.Sqrt(ee)
	sr2 := 0.25 * ss * ss * inv2 // (σ/r)², σ = ss/2
	sr6 := float64(sr2 * sr2 * sr2)
	sr12 := float64(sr6 * sr6)
	return float64(4 * eps * (sr12 - sr6)), float64(24 * eps * (sr12 + sr12 - sr6) * inv2)
}

// pairEval is the analytic erfc-screened Coulomb + Lennard-Jones kernel:
// the table's generator, its fallback outside its range, the tests' oracle.
func pairEval(qq float64, lj *LJ, i, j int, alpha, r2 float64) (eC, eLJ, fr float64) {
	r := math.Sqrt(r2)
	inv2 := 1 / r2
	if qq != 0 {
		eC = qq * math.Erfc(alpha*r) / r * units.Coulomb
		fr = (float64(eC) + float64(qq*units.Coulomb*alpha*twoOverSqrtPi*math.Exp(-alpha*alpha*r2))) * inv2
	}
	if lj.site(i, j) {
		var fl float64
		eLJ, fl = ljEval(lj.Eps[i]*lj.Eps[j], lj.Sigma[i]+lj.Sigma[j], inv2)
		fr += fl
	}
	return eC, eLJ, fr
}

const twoOverSqrtPi = 2 / 1.7724538509055160273
