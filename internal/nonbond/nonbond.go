// Package nonbond computes the short-range nonbonded interactions — the
// real-space (erfc-screened) Coulomb term of Ewald-split electrostatics and
// Lennard-Jones — over one cluster-pair list, VerletList, in one pair loop:
// the computation of the MDGRAPE-4A nonbond pipelines, which hold
// i-particles while j-particles stream past (their cycle model is in
// internal/hw). A buffered run reuses the list across steps, an unbuffered
// one (Skin = 0) rebuilds it every step, and a rank builds it over its own
// slabs (RebuildRange). Results are bitwise identical at any GOMAXPROCS,
// with no atomics and no per-worker force arrays. The Coulomb term comes
// from a segmented cubic table in r² (internal/r2tab, the pipelines'
// datapath), Lennard-Jones from its closed form (kernel.go).
package nonbond

import (
	"fmt"
	"math"

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
	ECoul    float64 // erfc-screened Coulomb
	ELJ      float64 // Lennard-Jones
	EExcl    float64 // Ewald exclusion correction (VerletList.EwaldExcl)
	Pairs    int     // interacting pairs evaluated (within cutoff)
	Excluded int     // excluded pairs corrected
}

// SlabPartial is one slab's short-range energy/pair-count accumulator,
// padded to a cache line so concurrent slab workers never share one.
type SlabPartial struct {
	ECoul, ELJ, EExcl float64
	Pairs, Excluded   int
	_                 [3]float64
}

// FoldSlabs reduces per-slab partials in ascending slab order, the one
// order every engine's Result is summed in.
func FoldSlabs(part []SlabPartial) Result {
	var res Result
	for s := range part {
		res.ECoul += part[s].ECoul
		res.ELJ += part[s].ELJ
		res.EExcl += part[s].EExcl
		res.Pairs += part[s].Pairs
		res.Excluded += part[s].Excluded
	}
	return res
}

// CheckExclusions panics unless res, the result of lists covering every
// slab with EwaldExcl set, corrected every excluded pair of excl among
// pos's atoms: a pair the lists missed, being beyond their reach
// (rc + skin), would otherwise lose its correction without a trace. The
// message names the excluded pair farthest apart.
func CheckExclusions(res Result, box vec.Box, pos []vec.V, excl *topol.Exclusions, reach float64) {
	want := 0
	for _, p := range excl.Pairs() {
		if int(p.J) < len(pos) {
			want++
		}
	}
	if res.Excluded >= want {
		return
	}
	far, r2 := topol.Pair{}, -1.0
	for _, p := range excl.Pairs() {
		if int(p.J) >= len(pos) {
			continue
		}
		var d2 float64 // minimum image, products rounded against fusion
		for ax, l := range box.L {
			d := pos[p.I][ax] - pos[p.J][ax]
			d -= float64(l * math.Round(d/l))
			d2 += float64(d * d)
		}
		if d2 > r2 {
			far, r2 = p, d2
		}
	}
	panic(fmt.Sprintf("nonbond: the pair list corrected %d of %d excluded pairs; the farthest, (%d, %d), is %.4g nm apart and the list reaches rc + skin = %.4g nm",
		res.Excluded, want, far.I, far.J, math.Sqrt(r2), reach))
}

// ComputeWithList evaluates every non-excluded pair within cl.Cutoff into
// f (may be nil) over a one-shot, allocating skin-0 VerletList: the entry
// point of the benchmark's nonbond.cellpath_ms probe.
func ComputeWithList(cl *celllist.List, box vec.Box, pos []vec.V, q []float64, lj *LJ, alpha float64, excl *topol.Exclusions, f []vec.V) Result {
	v := NewVerletList(box, cl.Cutoff, 0)
	v.Rebuild(pos, excl)
	return v.Compute(pos, q, lj, alpha, f)
}
