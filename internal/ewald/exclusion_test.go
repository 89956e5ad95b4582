package ewald

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tme4a/internal/topol"
	"tme4a/internal/units"
	"tme4a/internal/vec"
)

// exclusionOracle is the reduction ExclusionCorrection is defined by,
// written out without the term array: every 256-atom chunk subtracts its
// half pair energies from an accumulator that starts at zero, atoms
// ascending and each atom's neighbour list in order, skipping vanishing
// charge products; the chunk sums add up in ascending chunk order.
func exclusionOracle(box vec.Box, pos []vec.V, q []float64, alpha float64, excl *topol.Exclusions, f []vec.V) float64 {
	n := excl.NAtoms()
	if n > len(pos) {
		n = len(pos)
	}
	var energy float64
	for lo := 0; lo < n; lo += 256 {
		var pc float64
		for i := lo; i < lo+256 && i < n; i++ {
			for _, j := range excl.Neighbors(i) {
				qq := q[i] * q[j]
				if qq == 0 {
					continue
				}
				d := box.MinImage(pos[i].Sub(pos[j]))
				r2 := d.Norm2()
				r := math.Sqrt(r2)
				e := math.Erf(alpha*r) / r
				pc -= 0.5 * qq * e
				fr := qq * (alpha*TwoOverSqrtPi*math.Exp(-alpha*alpha*r2) - e) / r2 * units.Coulomb
				f[i] = f[i].Add(d.Scale(fr))
			}
		}
		energy += pc
	}
	return energy * units.Coulomb
}

// exclusionTestSystem builds n atoms whose exclusion table covers only the
// first n−7 of them, with neighbour lists of length 0, 1, 2 and 5 (groups
// of 1, 2, 3 and 6 atoms) and every eleventh atom neutral. group[i] numbers
// the exclusion group atom i belongs to.
func exclusionTestSystem(seed int64, n int, box vec.Box) (pos []vec.V, q []float64, excl *topol.Exclusions, group []int) {
	rng := rand.New(rand.NewSource(seed))
	pos = make([]vec.V, n)
	q = make([]float64, n)
	group = make([]int, n)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*box.L[0], rng.Float64()*box.L[1], rng.Float64()*box.L[2])
		q[i] = rng.NormFloat64()
		if i%11 == 0 {
			q[i] = 0
		}
		group[i] = -1 - i // ungrouped unless set below
	}
	na := n - 7
	excl = topol.NewExclusions(na)
	sizes := []int{1, 2, 3, 6}
	for g, k := 0, 0; g+sizes[k%4] <= na; g, k = g+sizes[k%4], k+1 {
		grp := make([]int, sizes[k%4])
		for a := range grp {
			grp[a] = g + a
			group[g+a] = k
		}
		excl.AddGroup(grp)
	}
	return pos, q, excl, group
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestExclusionTermsFoldMatchesCorrection: the correction computed whole,
// and computed as a rank engine does — ExclusionTerms over owned atom sets
// that cut through the fold's 256-atom chunks, then FoldExclusionEnergy at
// the root — agree with the written-out reduction to the bit, energy and
// forces, at any worker count.
func TestExclusionTermsFoldMatchesCorrection(t *testing.T) {
	box := vec.Cubic(2.4)
	const alpha = 3.1
	for _, n := range []int{255, 256, 257, 1000} {
		pos, q, excl, group := exclusionTestSystem(int64(n), n, box)
		fWant := make([]vec.V, n)
		eWant := exclusionOracle(box, pos, q, alpha, excl, fWant)
		if eWant == 0 {
			t.Fatalf("n=%d: oracle energy is zero; the system exercises nothing", n)
		}
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("n%d/P%d", n, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				check := func(name string, e float64, f []vec.V) {
					t.Helper()
					if !sameBits(e, eWant) {
						t.Fatalf("%s: energy %.17g, oracle %.17g", name, e, eWant)
					}
					for i := range f {
						if f[i] != fWant[i] {
							t.Fatalf("%s: force %d is %v, oracle %v", name, i, f[i], fWant[i])
						}
					}
				}
				f := make([]vec.V, n)
				check("ExclusionCorrection", ExclusionCorrection(box, pos, q, alpha, excl, f), f)
				if e := ExclusionCorrection(box, pos, q, alpha, excl, nil); !sameBits(e, eWant) {
					t.Fatalf("ExclusionCorrection without forces: energy %.17g, oracle %.17g", e, eWant)
				}

				// Three owners take the exclusion groups in rotation, so every
				// 256-atom chunk is split among all of them while partners stay
				// co-owned.
				off := ExclusionOffsets(excl, n)
				owned := make([][]int32, 3)
				for i, o := 0, 0; i < n; i++ {
					if i > 0 && group[i] != group[i-1] {
						o = (o + 1) % 3
					}
					owned[o] = append(owned[o], int32(i))
				}
				f = make([]vec.V, n)
				all := make([]float64, off[n])
				for _, atoms := range owned {
					mine := make([]float64, off[n])
					for k := range mine {
						mine[k] = math.NaN() // slots of foreign atoms must not be read
					}
					ExclusionTerms(box, pos, q, alpha, excl, f, atoms, off, mine)
					for _, i := range atoms {
						copy(all[off[i]:off[i+1]], mine[off[i]:off[i+1]])
					}
				}
				check("ExclusionTerms+Fold", FoldExclusionEnergy(all, off), f)
			})
		}
	}
}
