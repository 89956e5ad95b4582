package tune

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"tme4a/internal/water"
)

// sweepBudgets are the error budgets TestSweepPinned asks PlanFor at.
var sweepBudgets = []float64{5e-3, 2e-3, 1e-3, 5e-4, 2e-4, 1e-4}

// sweepHashes pins the tuner over water boxes of side s = 2…40 (index
// s−2): an FNV-64a hash of every Enumerate candidate's identity and the
// exact bits of its PredMs and PredErr, in listing order, followed by
// PlanFor's pick (or its error text) at each of sweepBudgets.
var sweepHashes = []uint64{
	0xf4107dfee56d219b, 0xdbe3bcfaaa73f6bd, 0xca7164250e3520a1, 0xcb0a3133df6b28c7,
	0xfbf0c6b3fac699bc, 0x009becd34f3560f6, 0xce2c1eb6794fba7d, 0xf994c55d455efd1c,
	0x842f55a0ff4580d8, 0x867d7a6df0b2f8ff, 0x8254eece57164997, 0x56a6b3687a078de2,
	0x2171d188c68eab45, 0xc11f2091cc7cd64f, 0x594f8db2fa2f0393, 0x6a7f631bf19c60e1,
	0x680fb1075f554b2e, 0xcb6c52098707f135, 0xc16494bb4fd3ce17, 0xa9a271045a88bc57,
	0x81a2d1a7d5a5c4f7, 0x8c0bda9ea16df692, 0xcb3c07643c54f18c, 0xc94189ae38004c68,
	0x13d0823e427d7f75, 0xd8021a22681baa25, 0xefd914771dae4343, 0xeafc447ace443772,
	0xff197c3e0d047757, 0xfa582daef937c0d7, 0x649315edca9fe299, 0x854a7ea27403b0dd,
	0xe5645c14ec96f3d3, 0x51cb9545f36815ea, 0xb5b102f2e53c4fea, 0xb4eaa335d93d9680,
	0x9f706bdaef3f2198, 0x596ecaadbd8c674e, 0xa5c7f949a822f2d3,
}

// sweepHash hashes the tuner's whole answer for a box of side³ waters.
func sweepHash(side int) uint64 {
	req := Request{Box: water.CubicBoxFor(side * side * side), Atoms: 3 * side * side * side, ErrBudget: sweepBudgets[0]}
	h := fnv.New64a()
	cands, err := Enumerate(req)
	if err != nil {
		fmt.Fprintf(h, "enumerate: %v\n", err)
	}
	for _, c := range cands {
		fmt.Fprintf(h, "%s %x %x\n", c.Plan.String(), math.Float64bits(c.PredMs), math.Float64bits(c.PredErr))
	}
	for _, b := range sweepBudgets {
		req.ErrBudget = b
		p, err := PlanFor(req)
		if err != nil {
			fmt.Fprintf(h, "%g: %v\n", b, err)
			continue
		}
		fmt.Fprintf(h, "%g: %s %x %x\n", b, p.String(), math.Float64bits(p.PredMs), math.Float64bits(p.PredErr))
	}
	return h.Sum64()
}

// TestSweepPinned holds the tuner bit for bit over 39 water boxes: the
// candidate listing, every prediction's bits and the pick at six budgets.
// A change to the cost model, the error estimator or the enumeration
// order shows up here as the sides whose hash moved.
func TestSweepPinned(t *testing.T) {
	if len(sweepHashes) != 39 {
		t.Fatalf("%d pinned hashes, want 39", len(sweepHashes))
	}
	for i, want := range sweepHashes {
		if got := sweepHash(i + 2); got != want {
			t.Errorf("side %d: hash %#016x, pinned %#016x", i+2, got, want)
		}
	}
}
