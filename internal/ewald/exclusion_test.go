package ewald

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tme4a/internal/nonbond"
	"tme4a/internal/topol"
	"tme4a/internal/vec"
)

// exclusionTestSystem builds n atoms whose exclusion table covers only the
// first n−7 of them, with neighbour lists of length 0, 1, 2 and 5 (groups
// of 1, 2, 3 and 6 atoms) and every eleventh atom neutral. A group's atoms
// lie within ±spread of its first atom on each axis and, like bonded atoms,
// at least 0.09 nm from each other; the rest are uniform.
func exclusionTestSystem(seed int64, n int, box vec.Box, spread float64) (pos []vec.V, q []float64, excl *topol.Exclusions) {
	rng := rand.New(rand.NewSource(seed))
	pos = make([]vec.V, n)
	q = make([]float64, n)
	for i := range pos {
		pos[i] = vec.V{rng.Float64() * box.L[0], rng.Float64() * box.L[1], rng.Float64() * box.L[2]}
		q[i] = rng.NormFloat64()
		if i%11 == 0 {
			q[i] = 0
		}
	}
	na := n - 7
	excl = topol.NewExclusions(na)
	sizes := []int{1, 2, 3, 6}
	for g, k := 0, 0; g+sizes[k%4] <= na; g, k = g+sizes[k%4], k+1 {
		grp := make([]int, sizes[k%4])
		for a := range grp {
			grp[a] = g + a
			for near := a > 0; near; {
				pos[g+a] = pos[g].Add(vec.V{rng.Float64() - 0.5, rng.Float64() - 0.5, rng.Float64() - 0.5}.Scale(2 * spread))
				near = false
				for b := range a {
					near = near || pos[g+a].Sub(pos[g+b]).Norm() < 0.09
				}
			}
		}
		excl.AddGroup(grp)
	}
	return pos, q, excl
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestExclusionTermsFoldMatchesCorrection: the correction as the MD
// engines compute it — per-pair terms in the pair list's loop
// (nonbond.VerletList with EwaldExcl), folded by slab — agrees with
// ExclusionCorrection in energy and forces, with excluded pairs out to
// √3·2·spread, well beyond the cutoff and the kernel's table, groups
// larger than a cluster, neutral atoms and atoms beyond the exclusion
// table, and is bitwise the same at any worker count. In the 1 nm box an
// excluded pair is also within reach in a second image, where it must not
// be corrected again.
func TestExclusionTermsFoldMatchesCorrection(t *testing.T) {
	const alpha, rc, skin, spread = 3.1, 0.5, 0.4, 0.25 // rc + skin > √3·2·spread
	for _, tc := range []struct {
		name string
		l    float64
		n    int
	}{{"n255", 2.4, 255}, {"n256", 2.4, 256}, {"n257", 2.4, 257}, {"n1000", 2.4, 1000}, {"small/n60", 1.0, 60}} {
		box, n := vec.Cubic(tc.l), tc.n
		pos, q, excl := exclusionTestSystem(int64(n), n, box, spread)
		fWant := make([]vec.V, n)
		eWant := ExclusionCorrection(box, pos, q, alpha, excl, fWant)
		if eWant == 0 {
			t.Fatalf("n=%d: correction energy is zero; the system exercises nothing", n)
		}
		if e := ExclusionCorrection(box, pos, q, alpha, excl, nil); !sameBits(e, eWant) {
			t.Fatalf("n=%d: ExclusionCorrection without forces: energy %.17g, with %.17g", n, e, eWant)
		}
		var fmax float64
		for _, fi := range fWant {
			fmax = math.Max(fmax, fi.Norm())
		}
		var eP1 float64
		var fP1 []vec.V
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				compute := func(corr bool) (nonbond.Result, []vec.V) {
					v := nonbond.NewVerletList(box, rc, skin)
					v.EwaldExcl = corr
					v.Rebuild(pos, excl)
					f := make([]vec.V, n)
					return v.Compute(pos, q, nil, alpha, f), f
				}
				on, fOn := compute(true)
				off, fOff := compute(false)
				if want := len(excl.Pairs()); on.Excluded != want || off.Excluded != 0 {
					t.Fatalf("corrected %d and %d pairs, want %d and 0", on.Excluded, off.Excluded, want)
				}
				if math.Abs(on.EExcl-eWant) > 1e-10*math.Abs(eWant) {
					t.Errorf("energy %.15g, ExclusionCorrection %.15g", on.EExcl, eWant)
				}
				if on.ECoul != off.ECoul || on.Pairs != off.Pairs {
					t.Errorf("the correction moved the screened term: %v, %v", on, off)
				}
				for i := range fOn {
					if d := fOn[i].Sub(fOff[i]).Sub(fWant[i]).Norm(); d > 1e-9*fmax {
						t.Fatalf("force %d: list %v, ExclusionCorrection %v (|Δ| %.3g, max|F| %.3g)",
							i, fOn[i].Sub(fOff[i]), fWant[i], d, fmax)
					}
				}
				if procs == 1 {
					eP1, fP1 = on.EExcl, fOn
					return
				}
				if !sameBits(on.EExcl, eP1) {
					t.Errorf("energy %.17g, at one worker %.17g", on.EExcl, eP1)
				}
				for i := range fOn {
					if fOn[i] != fP1[i] {
						t.Fatalf("force %d is %v, at one worker %v", i, fOn[i], fP1[i])
					}
				}
			})
		}
	}
}
