package nonbond_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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

// diffuseHalf bounds diffusedWaterBox's offsets: half the 0.62 nm cell of
// the 3000-atom box at rc 0.5 + skin 0.1.
const diffuseHalf = 0.31

// diffusedWaterBox is waterBox with every molecule moved rigidly by a
// seeded random offset of up to diffuseHalf along each axis. The lattice's
// planes fall between the cell faces of the 3000-atom box at rc 0.5 + skin
// 0.1, so no lattice molecule straddles a cell there and a cluster test or
// benchmark on it is flattered; these molecules straddle cell, slab and
// periodic faces (TestWaterFixturesCutFaces). An offset that would bring
// an atom within 0.15 nm of another molecule's, or two oxygens within
// 0.25 nm, is drawn again, up to 50 times, after which the molecule stays.
func diffusedWaterBox(side int) *md.System {
	sys := waterBox(side)
	if pos, ok := diffused[side]; ok {
		copy(sys.Pos, pos)
		return sys
	}
	rng := rand.New(rand.NewSource(int64(side)))
	for m, w := range sys.RigidWaters {
		for try := 0; try < 50; try++ {
			var d vec.V
			for k := range d {
				d[k] = diffuseHalf * (2*rng.Float64() - 1)
			}
			if !contact(sys, m, d) {
				for _, i := range w {
					sys.Pos[i] = sys.Pos[i].Add(d)
				}
				break
			}
		}
	}
	diffused[side] = append([]vec.V(nil), sys.Pos...)
	return sys
}

// diffused holds the positions diffusedWaterBox has drawn, per side.
var diffused = map[int][]vec.V{}

// contact reports whether molecule m, moved by d, would come within 0.15 nm
// of another molecule's atom or bring its oxygen within 0.25 nm of another.
func contact(sys *md.System, m int, d vec.V) bool {
	o := sys.Pos[sys.RigidWaters[m][0]].Add(d)
	for i, w := range sys.RigidWaters {
		if i == m || sys.Box.MinImage(o.Sub(sys.Pos[w[0]])).Norm2() > 0.5*0.5 {
			continue
		}
		for a, ia := range sys.RigidWaters[m] {
			for b, ib := range w {
				r := sys.Box.MinImage(sys.Pos[ia].Add(d).Sub(sys.Pos[ib])).Norm()
				if r < 0.15 || a == 0 && b == 0 && r < 0.25 {
					return true
				}
			}
		}
	}
	return false
}

// waterFixtures are the two variants of each box the short-range tests run
// on.
var waterFixtures = []struct {
	name string
	box  func(side int) *md.System
}{{"lattice", waterBox}, {"diffused", diffusedWaterBox}}

// TestWaterFixturesCutFaces: on the 3000-atom box with cells of cutoff 0.6,
// no lattice molecule straddles a cell, slab (z-layer) or periodic face;
// some diffused molecules straddle each.
func TestWaterFixturesCutFaces(t *testing.T) {
	for _, fx := range waterFixtures {
		sys := fx.box(10)
		cl := celllist.Build(sys.Box, 0.6, sys.Pos)
		nc := cl.NCells()
		cell, buf := make([]int, sys.N()), make([]int32, sys.N())
		for c := range nc[0] * nc[1] * nc[2] {
			for _, a := range cl.CellAtoms(c, buf) {
				cell[a] = c
			}
		}
		var cells, slabs, faces int
		for _, w := range sys.RigidWaters {
			var cutCell, cutSlab, cutFace bool
			for _, i := range w[1:] {
				cutCell = cutCell || cell[i] != cell[w[0]]
				cutSlab = cutSlab || cell[i]/(nc[0]*nc[1]) != cell[w[0]]/(nc[0]*nc[1])
				for k, l := range sys.Box.L {
					cutFace = cutFace || math.Floor(sys.Pos[i][k]/l) != math.Floor(sys.Pos[w[0]][k]/l)
				}
			}
			cells, slabs, faces = cells+b2i(cutCell), slabs+b2i(cutSlab), faces+b2i(cutFace)
		}
		t.Logf("%s: of %d molecules, %d cut by a cell face, %d by a slab face, %d by a periodic face",
			fx.name, len(sys.RigidWaters), cells, slabs, faces)
		if cut := fx.name == "diffused"; cut != (cells > 0) || cut != (slabs > 0) || cut != (faces > 0) {
			t.Errorf("%s: %d, %d, %d molecules cut by cell, slab and periodic faces", fx.name, cells, slabs, faces)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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

// TestPairCountsMatchFloorImage: the list (NPairs), its force pass and the
// cell-path oracle (Result.Pairs) find exactly the pairs the Floor-based
// minimum image finds, on the two benchmark water boxes, buffered and at
// skin 0 — with every atom moved by a random whole number of box lengths,
// so the rounding is exercised on every axis of every pair.
func TestPairCountsMatchFloorImage(t *testing.T) {
	for _, tc := range []struct {
		side       int
		rc, skin   float64
		wantDirect bool
	}{
		{8, 1.0, 0.1, true},
		{10, 0.5, 0.1, false},
		{8, 1.0, 0, true},
		{10, 0.5, 0, false},
	} {
		sys := waterBox(tc.side)
		if d := celllist.New(sys.Box, tc.rc).Direct(); d != tc.wantDirect {
			t.Fatalf("%d atoms at rc %g: direct mode %v, want %v", sys.N(), tc.rc, d, tc.wantDirect)
		}
		pos := shiftedByBoxes(sys, int64(tc.side))
		alpha := spme.AlphaFromRTol(tc.rc, 1e-4)
		v := nonbond.NewVerletList(sys.Box, tc.rc, tc.skin)
		v.Rebuild(pos, sys.Excl)
		want, wantList := floorPairCount(sys, pos, tc.rc), floorPairCount(sys, pos, tc.rc+tc.skin)
		if got := v.NPairs(); got != wantList {
			t.Errorf("%d atoms skin %g: NPairs %d, Floor-image oracle %d", sys.N(), tc.skin, got, wantList)
		}
		if got := v.Compute(pos, sys.Q, sys.LJ, alpha, nil).Pairs; got != want {
			t.Errorf("%d atoms skin %g: list Result.Pairs %d, Floor-image oracle %d", sys.N(), tc.skin, got, want)
		}
		f := make([]vec.V, sys.N())
		if got := nonbond.OracleCompute(sys.Box, pos, sys.Q, sys.LJ, alpha, tc.rc, sys.Excl, f).Pairs; got != want {
			t.Errorf("%d atoms: cell-path oracle Result.Pairs %d, Floor-image oracle %d", sys.N(), got, want)
		}
	}
}

// shiftedByBoxes returns the system's positions, each atom moved by a random
// whole number (−3…3) of box lengths along every axis.
func shiftedByBoxes(sys *md.System, seed int64) []vec.V {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V, sys.N())
	for i, p := range sys.Pos {
		for k := 0; k < 3; k++ {
			pos[i][k] = p[k] + float64(rng.Intn(7)-3)*sys.Box.L[k]
		}
	}
	return pos
}

// listForces evaluates the short-range term of sys at pos over a fresh list.
func listForces(sys *md.System, pos []vec.V, rc, skin float64) (nonbond.Result, []vec.V) {
	v := nonbond.NewVerletList(sys.Box, rc, skin)
	v.Rebuild(pos, sys.Excl)
	f := make([]vec.V, sys.N())
	return v.Compute(pos, sys.Q, sys.LJ, spme.AlphaFromRTol(rc, 1e-4), f), f
}

// requireClose fails unless every atom's force in got is within rel of its
// force in want, relative to that force's magnitude, and returns the
// largest relative difference.
func requireClose(t *testing.T, name string, got, want []vec.V, rel float64) float64 {
	t.Helper()
	var worst float64
	for i := range want {
		d := got[i].Sub(want[i]).Norm() / want[i].Norm()
		if !(d <= rel) {
			t.Fatalf("%s: atom %d force %v vs %v (%.2e relative)", name, i, got[i], want[i], d)
		}
		worst = math.Max(worst, d)
	}
	return worst
}

// oracleCase is a water box, lattice and diffused, at a cutoff and skin
// whose sum decomposes into cells or leaves the list in direct mode.
type oracleCase struct {
	side     int
	rc, skin float64
	direct   bool
}

// TestSkin0ListMatchesOracle holds the skin-0 list to the cell-path oracle
// on the 648-, 1536- and 3000-atom boxes in cell and direct mode
// (matchOracle).
func TestSkin0ListMatchesOracle(t *testing.T) {
	matchOracle(t, []oracleCase{
		{6, 0.6, 0, false}, {6, 0.84, 0, true},
		{8, 0.8, 0, false}, {8, 0.9, 0, true},
		{10, 0.5, 0, false}, {10, 1.2, 0, true},
	})
}

// TestBufferedListMatchesOracle is TestSkin0ListMatchesOracle for the list
// buffered by a 0.1 nm skin.
func TestBufferedListMatchesOracle(t *testing.T) {
	matchOracle(t, []oracleCase{
		{6, 0.5, 0.1, false}, {6, 0.84, 0.1, true}, // cutoff+skin > L/2
		{8, 0.7, 0.1, false}, {8, 0.9, 0.1, true},
		{10, 0.5, 0.1, false}, {10, 1.2, 0.1, true},
	})
}

// matchOracle holds the list of each case, on the lattice and the diffused
// box, to the cell-path oracle: the same Result.Pairs, which is also the
// Floor-image count, an NPairs equal to the Floor-image count at rc+skin,
// energies within 1e-12 and every atom's force within 1e-12 of its
// magnitude.
func matchOracle(t *testing.T, cases []oracleCase) {
	t.Helper()
	for _, fx := range waterFixtures {
		for _, tc := range cases {
			matchOracleOne(t, fx.name, fx.box(tc.side), tc.rc, tc.skin, tc.direct)
		}
	}
}

func matchOracleOne(t *testing.T, fixture string, sys *md.System, rc, skin float64, direct bool) {
	t.Helper()
	name := fmt.Sprintf("%s %d atoms rc %g skin %g", fixture, sys.N(), rc, skin)
	if d := celllist.New(sys.Box, rc+skin).Direct(); d != direct {
		t.Fatalf("%s: direct mode %v, want %v", name, d, direct)
	}
	v := nonbond.NewVerletList(sys.Box, rc, skin)
	v.Rebuild(sys.Pos, sys.Excl)
	fL, fO := make([]vec.V, sys.N()), make([]vec.V, sys.N())
	rL := v.Compute(sys.Pos, sys.Q, sys.LJ, spme.AlphaFromRTol(rc, 1e-4), fL)
	rO := nonbond.OracleCompute(sys.Box, sys.Pos, sys.Q, sys.LJ, spme.AlphaFromRTol(rc, 1e-4), rc, sys.Excl, fO)
	if want := floorPairCount(sys, sys.Pos, rc); rL.Pairs != rO.Pairs || rL.Pairs != want {
		t.Fatalf("%s: %d pairs via the list, %d via the oracle, %d by the Floor image", name, rL.Pairs, rO.Pairs, want)
	}
	if want := floorPairCount(sys, sys.Pos, rc+skin); v.NPairs() != want {
		t.Fatalf("%s: NPairs %d, Floor-image count at rc+skin %d", name, v.NPairs(), want)
	}
	if math.Abs(rL.ECoul-rO.ECoul) > 1e-12*math.Abs(rO.ECoul) || math.Abs(rL.ELJ-rO.ELJ) > 1e-12*math.Abs(rO.ELJ) {
		t.Errorf("%s: energies (%.15g, %.15g) via the list, (%.15g, %.15g) via the oracle", name, rL.ECoul, rL.ELJ, rO.ECoul, rO.ELJ)
	}
	t.Logf("%s: worst per-atom force difference %.2e relative", name, requireClose(t, name, fL, fO, 1e-12))
}

// The short-range properties of the one pair loop (ROADMAP item 1(b)), at
// skin 0 and 0.1, on a cell-mode and a direct-mode water box, lattice and
// diffused.
var propertyCases = []struct {
	side     int
	rc, skin float64
}{
	{10, 0.5, 0}, {10, 0.5, 0.1}, // cell mode
	{8, 1.0, 0}, {8, 1.0, 0.1}, // direct mode
}

// TestShortRangeForcesSumToZero: every pair adds a force to one atom and
// subtracts the same bits from the other, so the forces sum to zero up to
// the rounding of the per-atom sums.
func TestShortRangeForcesSumToZero(t *testing.T) {
	for _, fx := range waterFixtures {
		for _, tc := range propertyCases {
			sys := fx.box(tc.side)
			name := fmt.Sprintf("%s %d atoms rc %g skin %g", fx.name, sys.N(), tc.rc, tc.skin)
			_, f := listForces(sys, sys.Pos, tc.rc, tc.skin)
			var sum vec.V
			var scale float64
			for _, fi := range f {
				sum = sum.Add(fi)
				scale += fi.Norm()
			}
			t.Logf("%s: |ΣF| / Σ|F| = %.2e", name, sum.Norm()/scale)
			if sum.Norm() > 1e-13*scale {
				t.Errorf("%s: forces sum to %v, %.2e of Σ|F|", name, sum, sum.Norm()/scale)
			}
		}
	}
}

// TestShortRangeBoxShiftInvariance: moving every atom by whole box vectors
// changes no pair and no force beyond the rounding of the shifted
// coordinates.
func TestShortRangeBoxShiftInvariance(t *testing.T) {
	for _, fx := range waterFixtures {
		for _, tc := range propertyCases {
			sys := fx.box(tc.side)
			name := fmt.Sprintf("%s %d atoms rc %g skin %g", fx.name, sys.N(), tc.rc, tc.skin)
			r0, f0 := listForces(sys, sys.Pos, tc.rc, tc.skin)
			r1, f1 := listForces(sys, shiftedByBoxes(sys, 1), tc.rc, tc.skin)
			if r0.Pairs != r1.Pairs {
				t.Fatalf("%s: %d pairs, %d after the shift", name, r0.Pairs, r1.Pairs)
			}
			t.Logf("%s: worst per-atom force difference %.2e relative", name, requireClose(t, name, f1, f0, 1e-12))
		}
	}
}

// BenchmarkVerletComputeWater1536 is the pair pass of the sr-verlet
// workload: 1536 TIP3P atoms, rc = 1.0, skin 0.1 — a box too small for
// three cells, so the list is built in direct mode — lattice and diffused.
// EXPERIMENTS.md cites it ("Pair pass over listed pairs").
func BenchmarkVerletComputeWater1536(b *testing.B) {
	for _, fx := range waterFixtures {
		sys := fx.box(8)
		b.Run(fx.name, func(b *testing.B) {
			v := nonbond.NewVerletList(sys.Box, 1.0, 0.1)
			v.Rebuild(sys.Pos, sys.Excl)
			alpha := spme.AlphaFromRTol(1.0, 1e-4)
			f := make([]vec.V, sys.N())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Compute(sys.Pos, sys.Q, sys.LJ, alpha, f)
			}
		})
	}
}

// BenchmarkRebuildWater1536 is the list rebuild of the same workload, on
// the lattice and the diffused box: on the lattice alone every distance
// test predicts the same way. EXPERIMENTS.md cites it ("Pair pass over
// listed pairs").
func BenchmarkRebuildWater1536(b *testing.B) {
	for _, fx := range waterFixtures {
		sys := fx.box(8)
		b.Run(fx.name, func(b *testing.B) {
			v := nonbond.NewVerletList(sys.Box, 1.0, 0.1)
			v.Rebuild(sys.Pos, sys.Excl)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Rebuild(sys.Pos, sys.Excl)
			}
		})
	}
}

// BenchmarkSkin0ListWater is one unbuffered force evaluation — Rebuild and
// Compute of a skin-0 list — on four water boxes, lattice and diffused:
// 3000 atoms at rc 0.5 (cell mode), and 648, 1029 and 1536 atoms in direct
// mode.
func BenchmarkSkin0ListWater(b *testing.B) {
	for _, tc := range []struct {
		side int
		rc   float64
	}{
		{10, 0.5}, {6, 0.84}, {7, 0.9}, {8, 0.9},
	} {
		for _, fx := range waterFixtures {
			benchSkin0(b, fx.name, fx.box(tc.side), tc.rc)
		}
	}
}

func benchSkin0(b *testing.B, fixture string, sys *md.System, rc float64) {
	alpha := spme.AlphaFromRTol(rc, 1e-4)
	b.Run(fmt.Sprintf("%datoms-rc%g-%s", sys.N(), rc, fixture), func(b *testing.B) {
		v := nonbond.NewVerletList(sys.Box, rc, 0)
		v.Rebuild(sys.Pos, sys.Excl) // grow the list's storage
		f := make([]vec.V, sys.N())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Rebuild(sys.Pos, sys.Excl)
			v.Compute(sys.Pos, sys.Q, sys.LJ, alpha, f)
		}
	})
}

// TestShortRangePinned holds the list build and the pair pass to fixed
// bits on the 648-, 1536- and 3000-atom boxes, lattice and diffused, at
// skin 0 and 0.1 with EwaldExcl on, in direct mode (sides 6 and 8) and cell
// mode (side 10): an FNV-64a hash of every slab's entries and runs after
// Rebuild, and one of Compute's forces and Result. A change that moves a
// bit of either fails here, however small; one that means to must say why
// and record the new hashes.
func TestShortRangePinned(t *testing.T) {
	for _, tc := range []struct {
		fixture     int // index into waterFixtures
		side        int
		rc, skin    float64
		list, force uint64
	}{
		{0, 6, 0.84, 0, 0x8dbea4f00aa5ca1f, 0x0a6f3bd9caa42d59},
		{0, 6, 0.84, 0.1, 0xac89d17e796c18b8, 0x0a6f3bd9caa42d59},
		{0, 8, 1.0, 0, 0x5e74cc735a468b26, 0x1bce873549bde7e5},
		{0, 8, 1.0, 0.1, 0x160cb6ff2a3db05f, 0x1bce873549bde7e5},
		{0, 10, 0.5, 0, 0x8ae9c20cb454a430, 0x6afc1fa9435c257f},
		{0, 10, 0.5, 0.1, 0x5a6cc046d247718a, 0x5217286654af04e2},
		{1, 6, 0.84, 0, 0x4d355b87f3bf31c1, 0xa0c872fa4e748d72},
		{1, 6, 0.84, 0.1, 0x8e3b119cc30dd893, 0xa0c872fa4e748d72},
		{1, 8, 1.0, 0, 0x473b94412446a7c5, 0x2c69306e34df676b},
		{1, 8, 1.0, 0.1, 0x79b7b467c1a2628c, 0x2c69306e34df676b},
		{1, 10, 0.5, 0, 0x20e405907ccbeb14, 0x2e307e6451d05b4d},
		{1, 10, 0.5, 0.1, 0x94a11a9a9ee7dfe5, 0x62de5cd0a860481b},
	} {
		fx := waterFixtures[tc.fixture]
		sys := fx.box(tc.side)
		name := fmt.Sprintf("%s %d atoms rc %g skin %g", fx.name, sys.N(), tc.rc, tc.skin)
		v := nonbond.NewVerletList(sys.Box, tc.rc, tc.skin)
		v.EwaldExcl = true
		v.Rebuild(sys.Pos, sys.Excl)
		f := make([]vec.V, sys.N())
		r := v.Compute(sys.Pos, sys.Q, sys.LJ, spme.AlphaFromRTol(tc.rc, 1e-4), f)
		h := fnv.New64a()
		var b []byte
		for _, fi := range f {
			for _, x := range fi {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			}
		}
		for _, x := range []float64{r.ECoul, r.ELJ, r.EExcl} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Pairs))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Excluded))
		h.Write(b)
		if list, force := v.ListHash(), h.Sum64(); list != tc.list || force != tc.force {
			t.Errorf("%s: list hash %#016x, force hash %#016x; pinned %#016x, %#016x", name, list, force, tc.list, tc.force)
		}
	}
}
