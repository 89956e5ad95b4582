package dist

import (
	"testing"
)

// FuzzHaloPartition fuzzes the decomposition geometry — rank count, plane
// counts, two-scale order, convolution cutoff — and checks every halo
// table the plan would build (restriction, prolongation, convolution,
// interpolation widths) is a partition of each rank's extended window:
// no gap, no overlap (CheckPartition). It also exercises the prolongation
// tap builder, whose panic on an uncovered coarse plane would surface any
// too-narrow halo width.
func FuzzHaloPartition(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(4), uint8(4))
	f.Add(uint8(2), uint8(2), uint8(4), uint8(4))
	f.Add(uint8(4), uint8(1), uint8(6), uint8(3))
	f.Add(uint8(8), uint8(4), uint8(8), uint8(1))
	f.Add(uint8(3), uint8(3), uint8(2), uint8(7))
	f.Add(uint8(7), uint8(2), uint8(10), uint8(5))
	f.Fuzz(func(t *testing.T, rRaw, mulRaw, orderRaw, gcRaw uint8) {
		r := 1 + int(rRaw)%8               // ranks 1..8
		mul := 1 + int(mulRaw)%6           // coarse planes per rank 1..6
		order := 2 * (1 + int(orderRaw)%8) // even order 2..16
		gc := 1 + int(gcRaw)%10            // conv cutoff 1..10
		half := order / 2                  // len(bspline.TwoScale(order))/2 = (order+1)/2 for even order
		cn := r * mul                      // coarse plane count
		fn := 2 * cn                       // fine plane count
		pl := 3                            // plane length is irrelevant to the index maps
		type spec struct {
			name       string
			nz, lo, hi int
		}
		specs := []spec{
			{"restrict", fn, half, half - 1},
			{"prolong", cn, half/2 + 1, half/2 + 1},
			{"conv", fn, gc, gc},
			{"interp", fn, 0, order - 1},
		}
		for _, s := range specs {
			h, err := NewHalo(r, s.nz, s.lo, s.hi, pl)
			if err != nil {
				t.Fatalf("%s: NewHalo(r=%d nz=%d lo=%d hi=%d): %v", s.name, r, s.nz, s.lo, s.hi, err)
			}
			if err := CheckPartition(h); err != nil {
				t.Errorf("%s (r=%d nz=%d lo=%d hi=%d): %v", s.name, r, s.nz, s.lo, s.hi, err)
			}
		}
		// The prolongation tap builder panics if its halo misses a needed
		// coarse plane; running it for every rank proves the width bound
		// for this geometry. TwoScale coefficients are irrelevant to the
		// index maps, so a placeholder J of the right length suffices.
		j := make([]float64, order+1)
		for i := range j {
			j[i] = 1
		}
		ph := half/2 + 1
		conz, fonz := mul, 2*mul
		for a := 0; a < r; a++ {
			taps := buildProlongTaps(j, cn, a*conz, conz, ph, a*fonz, fonz, pl)
			// Every owned fine plane must receive at least one tap: the
			// serial scatter writes every fine plane (half ≥ 1).
			for fp, tl := range taps {
				if len(tl.coef) == 0 {
					t.Errorf("prolong taps: rank %d fine plane %d has no contributions (cn=%d order=%d)", a, fp, cn, order)
				}
			}
		}
	})
}
