package nonbond

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/celllist"
	"tme4a/internal/r2tab"
	"tme4a/internal/vec"
)

// TestKernelTableAccuracy is the error budget of the tabulated Coulomb
// kernel: over the whole tabulated range, for the production splitting
// parameter and for plain Coulomb, energy and force factor stay within 1e-8
// of the analytic kernel — five decades under the ~1e-3 method error of
// Table 1, so the table is a cost change at equal measured accuracy.
func TestKernelTableAccuracy(t *testing.T) {
	const points = 1_000_000
	for _, rc := range []float64{0.5, 1.0} {
		for _, alpha := range []float64{0, 3.12} {
			k := newKernel(alpha, rc)
			rng := rand.New(rand.NewSource(nameSeed(t)))
			var maxE, maxF float64
			for n := 0; n < points; n++ {
				// Log-uniform in r² so the short, steep end is sampled as
				// densely as the cutoff end.
				r2 := tableRMin2 * math.Pow(rc*rc/tableRMin2, rng.Float64())
				if r2 > rc*rc {
					r2 = rc * rc
				}
				e, f := k.tab.Lookup(r2)
				we, _, wf := pairEval(1, nil, 0, 0, alpha, r2)
				maxE = math.Max(maxE, math.Abs(e-we)/math.Abs(we))
				maxF = math.Max(maxF, math.Abs(f-wf)/math.Abs(wf))
			}
			t.Logf("rc=%.1f alpha=%.2f: max rel err E %.2e, F %.2e", rc, alpha, maxE, maxF)
			if maxE > 1e-8 || maxF > 1e-8 {
				t.Errorf("rc=%.1f alpha=%.2f: table error E %.2e, F %.2e above 1e-8", rc, alpha, maxE, maxF)
			}
		}
	}
}

// TestKernelForceIsEnergyGradient: the force factor is tabulated on its
// own, not differentiated from the energy cubic, so check that the two
// agree: −dE/dr of the tabulated energy by central difference against
// fr·r of the tabulated force, to 1e-6, at points spread over the table
// including ones whose stencil straddles a segment seam.
func TestKernelForceIsEnergyGradient(t *testing.T) {
	k := newKernel(3.12, 1.0)
	rng := rand.New(rand.NewSource(nameSeed(t)))
	energy := func(r float64) float64 {
		e, _ := k.tab.Lookup(r * r)
		return e
	}
	for n := 0; n < 20000; n++ {
		r := 0.04 + 0.95*rng.Float64()
		h := 1e-4 * r
		fd := -(energy(r+h) - energy(r-h)) / (2 * h)
		_, fr := k.tab.Lookup(r * r)
		if got := fr * r; math.Abs(got-fd) > 1e-6*math.Abs(fd) {
			t.Fatalf("r=%.6f: tabulated force %.10g vs −dE/dr %.10g (rel %.2e)", r, got, fd, math.Abs(got-fd)/math.Abs(fd))
		}
	}
}

// TestKernelFallbackBelowTable: closer than the table reaches, and for a
// cutoff so short the table is empty, the kernel is the analytic one — to
// rounding, since it scales the unit-charge value by qq where the oracle
// carries qq through — with LJ to the bit; inside the table it is within
// the table's error. Checked on one pair through the pair loop — a buffered
// and a skin-0 list — and through the cell-path oracle, in cell mode and in
// direct mode.
func TestKernelFallbackBelowTable(t *testing.T) {
	lj := &LJ{Sigma: []float64{0.3, 0.32}, Eps: []float64{0.6, 0.7}}
	q := []float64{1, -0.7}
	for _, tc := range []struct {
		alpha, rc float64
		rs        []float64
	}{
		{2.5, 1.0, []float64{1e-3, 0.02, 0.0312, 0.05, 0.3, 0.97}},
		{2.5, 0.02, []float64{1e-3, 0.0199}},
		{0, 1.0, []float64{1e-3, 0.0312, 0.5}},
	} {
		// 3.5 rc: three cells per axis; 2.5 rc: too few, direct mode.
		for _, side := range []float64{3.5 * tc.rc, 2.5 * tc.rc} {
			box := vec.Cubic(side)
			for _, r := range tc.rs {
				pos := []vec.V{{0.4 * side, 0.5 * side, 0.5 * side}, {0.4*side + r, 0.5 * side, 0.5 * side}}
				dx := pos[0][0] - pos[1][0]
				r2 := dx * dx
				wC, wLJ, wfr := pairEval(-0.7, lj, 0, 1, tc.alpha, r2)
				tol := 1e-15
				if r2 >= tableRMin2 && tc.rc > 0.5 {
					tol = 1e-8
				}
				check := func(path string, res Result, f []vec.V) {
					t.Helper()
					if res.Pairs != 1 {
						t.Fatalf("alpha=%g rc=%g side=%g r=%g %s: %d pairs", tc.alpha, tc.rc, side, r, path, res.Pairs)
					}
					fr := f[0][0] / dx
					if math.Abs(res.ECoul-wC) > tol*math.Abs(wC) || res.ELJ != wLJ || math.Abs(fr-wfr) > tol*math.Abs(wfr) {
						t.Errorf("alpha=%g rc=%g side=%g r=%g %s: (%g, %g, %g), want analytic (%g, %g, %g)",
							tc.alpha, tc.rc, side, r, path, res.ECoul, res.ELJ, fr, wC, wLJ, wfr)
					}
				}
				v := NewVerletList(box, tc.rc, 0.1*tc.rc)
				v.Rebuild(pos, nil)
				f := make([]vec.V, 2)
				check("verlet", v.Compute(pos, q, lj, tc.alpha, f), f)
				f = make([]vec.V, 2)
				check("skin-0 list", compute(box, pos, q, lj, tc.alpha, tc.rc, nil, f), f)
				f = make([]vec.V, 2)
				check("cell-path oracle", OracleCompute(box, pos, q, lj, tc.alpha, tc.rc, nil, f), f)
			}
		}
	}
	// An rc below the table floor builds an empty table.
	if tab := newKernel(2.5, 0.02).tab; segmentAt(tab, tableRMin2) || segmentAt(tab, 0.02*0.02) {
		t.Error("rc below the table floor built a table")
	}
	// A cutoff too large to tabulate is capped at 16 nm, not refused.
	if tab := newKernel(2.5, math.Inf(1)).tab; !segmentAt(tab, tableRMin2) || !segmentAt(tab, tableRMax2) || segmentAt(tab, 2*tableRMax2) {
		t.Error("unbounded cutoff did not build the table up to the 16 nm cap")
	}
}

// segmentAt reports whether tab tabulates s.
func segmentAt(tab *r2tab.Table, s float64) bool {
	c, _ := tab.Segment(s)
	return c != nil
}

// TestKernelSharedPerAlphaRc: engines asking for the same (α, rc) get the
// same immutable table; a different α or rc gets a different one.
func TestKernelSharedPerAlphaRc(t *testing.T) {
	a := kernelFor(2.5, 1.0)
	if b := kernelFor(2.5, 1.0); b != a {
		t.Error("same (alpha, rc) built a second table")
	}
	if b := kernelFor(2.6, 1.0); b == a || b.alpha != 2.6 {
		t.Error("alpha change did not build a new table")
	}
	if b := kernelFor(2.6, 0.9); b.rc != 0.9 {
		t.Error("rc change did not build a new table")
	}
}

// TestVerletAgreesWithCellPath: the buffered list and the cell-path oracle
// (oracle_test.go) share the kernel but sum in different orders and round
// the displacement differently (minimum image of a difference vs difference
// of wrapped positions), so they agree to 1e-12 of the system's force and
// energy scale, not to the bit — in cell mode and in direct mode.
func TestVerletAgreesWithCellPath(t *testing.T) {
	rng := rand.New(rand.NewSource(nameSeed(t)))
	for _, tc := range []struct {
		name string
		n    int
		box  vec.Box
	}{
		{"cells", 600, vec.Cubic(4.5)},
		{"direct", 300, vec.Cubic(2.4)},
	} {
		pos, q, lj := randomSystem(rng, tc.n, tc.box)
		excl := testExclusions(tc.n)
		fV := make([]vec.V, tc.n)
		fC := make([]vec.V, tc.n)
		v := NewVerletList(tc.box, 1.0, 0.15)
		v.Rebuild(pos, excl)
		rV := v.Compute(pos, q, lj, 3.12, fV)
		rC := OracleCompute(tc.box, pos, q, lj, 3.12, 1.0, excl, fC)
		if rV.Pairs != rC.Pairs {
			t.Fatalf("%s: %d pairs via the Verlet list, %d via the cell list", tc.name, rV.Pairs, rC.Pairs)
		}
		var num, den float64
		for i := range fV {
			num += fV[i].Sub(fC[i]).Norm2()
			den += fC[i].Norm2()
		}
		rel := math.Sqrt(num / den)
		t.Logf("%s: system force differs by %.2e relative", tc.name, rel)
		if rel > 1e-12 {
			t.Errorf("%s: system force differs by %.2e relative", tc.name, rel)
		}
		if d := math.Abs(rV.ECoul - rC.ECoul); d > 1e-12*math.Abs(rC.ECoul) {
			t.Errorf("%s: ECoul %.15g vs %.15g", tc.name, rV.ECoul, rC.ECoul)
		}
		if d := math.Abs(rV.ELJ - rC.ELJ); d > 1e-12*math.Abs(rC.ELJ) {
			t.Errorf("%s: ELJ %.15g vs %.15g", tc.name, rV.ELJ, rC.ELJ)
		}
	}
}

// TestRangeMatchesComputeBitwise: the rank engine's entry points — one
// list per range of slabs, RebuildRange over the range's layer window,
// Compute, and the owed reactions added by the next range afterwards —
// must equal one list over every slab to the bit, forces, energies and pair
// count, for every split of [0, ns) into contiguous ranges; and so must the
// energies when no forces are asked for. The systems are scattered atoms
// with scattered exclusion triplets, compact molecules (clusters cut by
// cell, layer and periodic faces) and six-atom chains (clusters excluded
// from each other's atoms across layers). The 3-layer boxes have the fewest
// layers a cell decomposition can have (below that celllist falls back to
// direct mode, so a two-slab ring does not exist): there every slab's upper
// neighbour is also the lower neighbour of its lower neighbour, and a
// two-range split hands each range's owed reactions to the range it also
// receives from.
func TestRangeMatchesComputeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(nameSeed(t)))
	for _, tc := range []struct {
		box   vec.Box
		n, ns int
		g     int // atoms per group of groupSystem; 0: randomSystem
		chain bool
	}{
		{vec.Cubic(5), 500, 5, 0, false},
		{vec.Cubic(3.1), 240, 3, 0, false},
		{vec.Cubic(5), 600, 5, 3, false},
		{vec.Cubic(3.1), 240, 3, 3, false},
		{vec.Cubic(5), 600, 5, 6, true},
	} {
		box, n := tc.box, tc.n
		pos, q, lj := randomSystem(rng, n, box)
		excl := testExclusions(n)
		if tc.g > 0 {
			pos, q, lj, excl = groupSystem(rng, n, tc.g, tc.chain, box)
		}
		cells := celllist.New(box, 1.0)
		if cells.Direct() || cells.NCells()[2] != tc.ns {
			t.Fatalf("box %v: want %d cell layers, got %d (direct=%v)", box.L, tc.ns, cells.NCells()[2], cells.Direct())
		}
		full := NewVerletList(box, 1.0, 0)
		full.Rebuild(pos, excl)
		fRef := make([]vec.V, n)
		rRef := full.Compute(pos, q, lj, 2.5, fRef)
		assertResultBitwise(t, "full list without forces", rRef, full.Compute(pos, q, lj, 2.5, nil))

		// Every split of [0, ns) into contiguous ranges: bit b of mask set
		// means a range starts at slab b+1.
		for mask := 0; mask < 1<<(tc.ns-1); mask++ {
			cuts := []int{0}
			for b := 0; b < tc.ns-1; b++ {
				if mask&(1<<b) != 0 {
					cuts = append(cuts, b+1)
				}
			}
			cuts = append(cuts, tc.ns)
			for _, forces := range []bool{true, false} {
				var f []vec.V
				if forces {
					f = make([]vec.V, n)
				}
				var part []SlabPartial
				var idx []int32
				var fv []vec.V
				for r := 0; r+1 < len(cuts); r++ {
					s0, s1 := cuts[r], cuts[r+1]
					var window []int32
					for i := range pos {
						if (cells.Layer(pos[i])-s0+tc.ns)%tc.ns <= s1-s0 {
							window = append(window, int32(i))
						}
					}
					v := NewVerletList(box, 1.0, 0)
					v.RebuildRange(pos, excl, window, s0, s1)
					v.Compute(pos, q, lj, 2.5, f)
					part = append(part, v.Partials()...)
					idx, fv = v.AppendOwed(idx, fv)
				}
				// The owed reactions after every range's Compute — the phase
				// order of the rank engine.
				if forces {
					for k, i := range idx {
						f[i] = f[i].Add(fv[k])
					}
				}
				name := fmt.Sprintf("ns=%d groups of %d cuts %v forces=%v", tc.ns, tc.g, cuts, forces)
				assertResultBitwise(t, name, rRef, FoldSlabs(part))
				if forces {
					assertForcesBitwise(t, name, fRef, f)
				}
			}
		}
	}
}

// TestVerletComputeAfterAlphaChange: the list looks its table up from
// (alpha, Cutoff) on every call, so after the tuner switches alpha an
// existing list answers exactly like a list that has only ever seen the new
// value.
func TestVerletComputeAfterAlphaChange(t *testing.T) {
	rng := rand.New(rand.NewSource(nameSeed(t)))
	box := vec.Cubic(4)
	n := 300
	pos, q, lj := randomSystem(rng, n, box)
	excl := testExclusions(n)

	old := NewVerletList(box, 1.0, 0.2)
	old.Rebuild(pos, excl)
	old.Compute(pos, q, lj, 2.5, make([]vec.V, n))
	fOld := make([]vec.V, n)
	rOld := old.Compute(pos, q, lj, 3.12, fOld)

	fresh := NewVerletList(box, 1.0, 0.2)
	fresh.Rebuild(pos, excl)
	fFresh := make([]vec.V, n)
	rFresh := fresh.Compute(pos, q, lj, 3.12, fFresh)

	assertResultBitwise(t, "after alpha change", rFresh, rOld)
	assertForcesBitwise(t, "after alpha change", fFresh, fOld)

	// And the new alpha really is in effect.
	rBack := old.Compute(pos, q, lj, 2.5, nil)
	if rBack.ECoul == rOld.ECoul {
		t.Error("alpha change had no effect on the Coulomb energy")
	}
}
