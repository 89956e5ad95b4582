// CheckPartition: executable specification of the halo-table invariant,
// shared by the unit tests and the geometry fuzz target.

package dist

import (
	"fmt"
	"math"
)

// CheckPartition verifies a halo table partitions every rank's extended
// window. It drives a full pack/deliver/unpack/fill cycle on a synthetic
// field whose elements encode (global plane, element) and then asserts,
// against independent wrap arithmetic, that every slot k of every rank's
// extended buffer holds exactly plane wrap(zlo−Lo+k, Nz) — no gap (a
// missed slot keeps its NaN sentinel), no overlap (a slot fed from the
// wrong source holds the wrong plane id). It also rejects duplicate
// planes inside a packed send list and out-of-range table entries.
func CheckPartition(h *Halo) error {
	r, pl := h.R, h.PlaneLen
	own := make([][]float64, r)
	for a := 0; a < r; a++ {
		own[a] = make([]float64, h.Onz*pl)
		zlo := a * h.Onz
		for lp := 0; lp < h.Onz; lp++ {
			for e := 0; e < pl; e++ {
				own[a][lp*pl+e] = float64((zlo+lp)*pl + e)
			}
		}
	}
	for src := 0; src < r; src++ {
		for dst := 0; dst < r; dst++ {
			lst := h.Planes(src, dst)
			for qi, g := range lst {
				if int(g) < src*h.Onz || int(g) >= (src+1)*h.Onz {
					return fmt.Errorf("send[%d→%d][%d] plane %d outside src block", src, dst, qi, g)
				}
				for _, g2 := range lst[:qi] {
					if g2 == g {
						return fmt.Errorf("send[%d→%d] lists plane %d twice", src, dst, g)
					}
				}
			}
		}
	}
	buf := make([]float64, h.MaxPackSize())
	for dst := 0; dst < r; dst++ {
		ext := make([]float64, h.ExtNz*pl)
		for e := range ext {
			ext[e] = math.NaN()
		}
		for src := 0; src < r; src++ {
			if src == dst {
				h.FillOwn(dst, own[dst], ext)
				continue
			}
			n := h.Pack(src, dst, own[src], buf)
			if n != h.PackSize(src, dst) {
				return fmt.Errorf("Pack(%d→%d) returned %d floats, PackSize says %d", src, dst, n, h.PackSize(src, dst))
			}
			h.Unpack(dst, src, buf[:n], ext)
		}
		zlo := dst * h.Onz
		for k := 0; k < h.ExtNz; k++ {
			g := wrapInt(zlo-h.Lo+k, h.Nz)
			for e := 0; e < pl; e++ {
				want := float64(g*pl + e)
				if got := ext[k*pl+e]; got != want {
					return fmt.Errorf("rank %d slot %d elem %d: got %v, want plane %d value %v (gap or overlap)",
						dst, k, e, got, g, want)
				}
			}
		}
	}
	return nil
}

// Planes returns the global planes src packs for dst (read-only).
func (h *Halo) Planes(src, dst int) []int32 { return h.send[src*h.R+dst] }

// MaxPackSize returns the largest sleeve over all (src, dst) pairs.
func (h *Halo) MaxPackSize() int {
	max := 0
	for src := 0; src < h.R; src++ {
		for dst := 0; dst < h.R; dst++ {
			if n := h.PackSize(src, dst); n > max {
				max = n
			}
		}
	}
	return max
}
