package nonbond

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"tme4a/internal/topol"
	"tme4a/internal/vec"
)

// groupSystem places n atoms in groups of g on a jittered lattice of group
// sites filling box, each atom within 0.12 nm of its site along each axis,
// so groups straddle cell, slab and periodic faces. A group's atoms are
// mutually excluded, or with chain only consecutive ones, which links them
// into one exclusion group while its non-consecutive pairs interact.
// Charges are ±0.5 and every atom is an LJ site.
func groupSystem(rng *rand.Rand, n, g int, chain bool, box vec.Box) ([]vec.V, []float64, *LJ, *topol.Exclusions) {
	ng := n / g
	m := int(math.Ceil(math.Cbrt(float64(ng))))
	pos, q := make([]vec.V, n), make([]float64, n)
	lj := &LJ{Sigma: make([]float64, n), Eps: make([]float64, n)}
	excl := topol.NewExclusions(n)
	for k := range ng {
		var site vec.V
		for ax, c := range [3]int{k % m, k / m % m, k / (m * m)} {
			site[ax] = (float64(c) + 0.5 + 0.3*(2*rng.Float64()-1)) * box.L[ax] / float64(m)
		}
		idx := make([]int, g)
		for a := range g {
			i := k*g + a
			idx[a] = i
			for ax := range pos[i] {
				pos[i][ax] = site[ax] + 0.12*(2*rng.Float64()-1)
			}
			q[i] = 0.5 * float64(1-2*(i%2))
			lj.Sigma[i], lj.Eps[i] = 0.2, 0.5
			if chain && a > 0 {
				excl.Add(i-1, i)
			}
		}
		if !chain {
			excl.AddGroup(idx)
		}
	}
	return pos, q, lj, excl
}

// TestClusterListTopologies holds the list to the cell-path oracle on
// topologies other than water, in cell and direct mode, at skin 0 and 0.1:
// ions alone (singleton clusters), groups of six mutually excluded atoms
// (split into clusters of four and two), and chains of six excluded only
// from their neighbours, whose clusters exclude each other's atoms while
// the chain's other pairs interact. Result.Pairs equals the oracle's and
// the brute-force count, NPairs the brute-force count at cutoff+skin, and
// every atom's force agrees with the oracle's within 1e-12.
func TestClusterListTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(nameSeed(t)))
	for _, topo := range []struct {
		name  string
		g     int
		chain bool
	}{{"ions", 1, false}, {"six", 6, false}, {"chains", 6, true}} {
		for _, mode := range []struct {
			name string
			n    int
			box  vec.Box
		}{{"cells", 600, vec.Cubic(4)}, {"direct", 300, vec.Cubic(2.4)}} {
			for _, skin := range []float64{0, 0.1} {
				name := fmt.Sprintf("%s %s skin %g", topo.name, mode.name, skin)
				pos, q, lj, excl := groupSystem(rng, mode.n, topo.g, topo.chain, mode.box)
				v := NewVerletList(mode.box, 1.0, skin)
				v.Rebuild(pos, excl)
				if v.cl.Direct() != (mode.name == "direct") {
					t.Fatalf("%s: direct mode %v", name, v.cl.Direct())
				}
				f, fO := make([]vec.V, mode.n), make([]vec.V, mode.n)
				r := v.Compute(pos, q, lj, 3.12, f)
				rO := OracleCompute(mode.box, pos, q, lj, 3.12, 1.0, excl, fO)
				if want := bruteCount(mode.box, pos, excl, 1.0); r.Pairs != rO.Pairs || r.Pairs != want {
					t.Fatalf("%s: %d pairs via the list, %d via the oracle, %d by brute force", name, r.Pairs, rO.Pairs, want)
				}
				if want := bruteCount(mode.box, pos, excl, 1.0+skin); v.NPairs() != want {
					t.Fatalf("%s: NPairs %d, brute force %d", name, v.NPairs(), want)
				}
				for i := range f {
					if d := f[i].Sub(fO[i]).Norm(); d > 1e-12*fO[i].Norm() {
						t.Fatalf("%s: atom %d force %v vs oracle %v", name, i, f[i], fO[i])
					}
				}
				// Clusters hold at most clusterMax atoms; in direct mode a group
				// of six is one cluster of four and one of two.
				nclus := len(v.cstart) - 1
				for c := range nclus {
					if sz := v.cstart[c+1] - v.cstart[c]; sz < 1 || sz > clusterMax {
						t.Fatalf("%s: cluster %d holds %d atoms", name, c, sz)
					}
				}
				if want := 2 * mode.n / topo.g; topo.g == 6 && mode.name == "direct" && nclus != want {
					t.Errorf("%s: %d clusters, want %d", name, nclus, want)
				}
			}
		}
	}
}

// bruteCount counts the non-excluded pairs within rc, by minimum image.
func bruteCount(box vec.Box, pos []vec.V, excl *topol.Exclusions, rc float64) int {
	n := 0
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			if !excl.Excluded(i, j) && box.MinImage(pos[i].Sub(pos[j])).Norm2() <= rc*rc {
				n++
			}
		}
	}
	return n
}

// TestSlabTraversalMatchesFlat: the slabs of a list cover exactly the pairs
// of a flat traversal and respect ownership. A run's i-cluster belongs to
// its slab; an entry's j-cluster to the slab whose block it writes — the
// slab itself or the layer above in cell mode, a later block in direct mode
// — at that block's offset; and every non-excluded pair within the cutoff
// is listed once.
func TestSlabTraversalMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name string
		n    int
		box  vec.Box
	}{
		{"cells", 300, vec.Cubic(5)},
		{"threecells", 120, vec.Cubic(3.1)},
		{"direct", 150, vec.Cubic(2.0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pos, _, _ := randomSystem(rng, tc.n, tc.box)
			excl := testExclusions(tc.n)
			v := NewVerletList(tc.box, 1.0, 0)
			v.Rebuild(pos, excl)
			slabOf := func(c int32) int {
				s := 0
				for c >= v.cbase[s+1] {
					s++
				}
				return s
			}
			listed := map[[2]int32]int{}
			for s := range v.ns {
				e0 := int32(0)
				for _, r := range v.sl[s].runs {
					if slabOf(r.c) != s {
						t.Fatalf("slab %d runs cluster %d of slab %d", s, r.c, slabOf(r.c))
					}
					for _, e := range v.sl[s].ent[e0:r.end] {
						tg := slabOf(e.j)
						if v.cl.Direct() && tg < s || !v.cl.Direct() && tg != s && tg != (s+1)%v.ns {
							t.Fatalf("slab %d lists cluster %d of slab %d", s, e.j, tg)
						}
						if want := v.blk[s*v.ns+tg] + v.cstart[e.j] - v.cstart[v.cbase[tg]]; e.jo != want {
							t.Fatalf("slab %d writes cluster %d at %d, its block puts it at %d", s, e.j, e.jo, want)
						}
						for m := uint(e.mask); m != 0; m &= m - 1 {
							p := bits.TrailingZeros(m)
							a, b := v.atom[v.cstart[r.c]+int32(p/clusterMax)], v.atom[v.cstart[e.j]+int32(p%clusterMax)]
							listed[[2]int32{min(a, b), max(a, b)}]++
						}
					}
					e0 = r.end
				}
			}
			want := 0
			for i := range pos {
				for j := i + 1; j < len(pos); j++ {
					if excl.Excluded(i, j) || tc.box.MinImage(pos[i].Sub(pos[j])).Norm2() > 1 {
						continue
					}
					want++
					if c := listed[[2]int32{int32(i), int32(j)}]; c != 1 {
						t.Fatalf("pair (%d, %d) listed %d times", i, j, c)
					}
				}
			}
			if len(listed) != want {
				t.Fatalf("%d pairs listed, %d within the cutoff", len(listed), want)
			}
		})
	}
}
