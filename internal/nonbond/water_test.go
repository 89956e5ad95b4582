package nonbond_test

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/celllist"
	"tme4a/internal/md"
	"tme4a/internal/nonbond"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// waterBox is a TIP3P lattice of side³ molecules at liquid density: side 8
// is the 1536-atom box of the sr-verlet benchmark workload (direct mode at
// rc = 1.0), side 10 the 3000-atom box of mesh-fine (cell mode at rc = 0.5).
func waterBox(side int) *md.System {
	return water.Build(side, side, side, water.CubicBoxFor(side*side*side), 7)
}

// floorImage is the minimum image as the pair loops computed it before the
// magic-constant rounding, d − l·⌊d/l + ½⌋: the oracle the pair counts are
// held to.
func floorImage(d, l float64) float64 {
	return d - l*math.Floor(d*(1/l)+0.5)
}

// floorPairCount counts the non-excluded pairs within cutoff rc under
// floorImage, by brute force.
func floorPairCount(sys *md.System, pos []vec.V, rc float64) int {
	rc2 := rc * rc
	n := 0
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			if sys.Excl.Excluded(i, j) {
				continue
			}
			var r2 float64
			for k := 0; k < 3; k++ {
				d := floorImage(pos[i][k]-pos[j][k], sys.Box.L[k])
				r2 += d * d
			}
			if r2 <= rc2 {
				n++
			}
		}
	}
	return n
}

// TestPairCountsMatchFloorImage: the buffered list (NPairs), the Verlet
// force pass and the list-free pass (Result.Pairs) find exactly the pairs
// the Floor-based minimum image finds, on the two benchmark water boxes —
// with every atom moved by a random whole number of box lengths, so the
// rounding is exercised on every axis of every pair.
func TestPairCountsMatchFloorImage(t *testing.T) {
	for _, tc := range []struct {
		side       int
		rc, skin   float64
		wantDirect bool
	}{
		{8, 1.0, 0.1, true},
		{10, 0.5, 0.1, false},
	} {
		sys := waterBox(tc.side)
		if d := celllist.New(sys.Box, tc.rc).Direct(); d != tc.wantDirect {
			t.Fatalf("%d atoms at rc %g: direct mode %v, want %v", sys.N(), tc.rc, d, tc.wantDirect)
		}
		rng := rand.New(rand.NewSource(int64(tc.side)))
		pos := make([]vec.V, sys.N())
		for i, p := range sys.Pos {
			for k := 0; k < 3; k++ {
				pos[i][k] = p[k] + float64(rng.Intn(7)-3)*sys.Box.L[k]
			}
		}
		alpha := spme.AlphaFromRTol(tc.rc, 1e-4)
		v := nonbond.NewVerletList(sys.Box, tc.rc, tc.skin)
		v.Rebuild(pos, sys.Excl)
		want, wantList := floorPairCount(sys, pos, tc.rc), floorPairCount(sys, pos, tc.rc+tc.skin)
		if got := v.NPairs(); got != wantList {
			t.Errorf("%d atoms: NPairs %d, Floor-image oracle %d", sys.N(), got, wantList)
		}
		if got := v.Compute(pos, sys.Q, sys.LJ, alpha, nil).Pairs; got != want {
			t.Errorf("%d atoms: Verlet Result.Pairs %d, Floor-image oracle %d", sys.N(), got, want)
		}
		f := make([]vec.V, sys.N())
		if got := nonbond.Compute(sys.Box, pos, sys.Q, sys.LJ, alpha, tc.rc, sys.Excl, f).Pairs; got != want {
			t.Errorf("%d atoms: list-free Result.Pairs %d, Floor-image oracle %d", sys.N(), got, want)
		}
	}
}

// BenchmarkVerletComputeWater1536 is the pair pass of the sr-verlet
// workload: 1536 TIP3P atoms, rc = 1.0, skin 0.1 — a box too small for
// three cells, so the list is built in direct mode.
func BenchmarkVerletComputeWater1536(b *testing.B) {
	sys := waterBox(8)
	v := nonbond.NewVerletList(sys.Box, 1.0, 0.1)
	v.Rebuild(sys.Pos, sys.Excl)
	alpha := spme.AlphaFromRTol(1.0, 1e-4)
	f := make([]vec.V, sys.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Compute(sys.Pos, sys.Q, sys.LJ, alpha, f)
	}
}

// BenchmarkRebuildWater1536 is the list rebuild of the same workload.
func BenchmarkRebuildWater1536(b *testing.B) {
	sys := waterBox(8)
	v := nonbond.NewVerletList(sys.Box, 1.0, 0.1)
	v.Rebuild(sys.Pos, sys.Excl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Rebuild(sys.Pos, sys.Excl)
	}
}
