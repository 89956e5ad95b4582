// Slab z-pass kernels. Each runs the row kernel its full-grid pass runs in
// internal/grid — grid.ConvRow (mirrored taps of an even kernel) for the
// convolution, grid.TapRow (taps folded from +0 in list order) for the
// restriction and prolongation — over whole planes of an extended buffer
// instead of a wrapped full grid, so it gets the full-grid bits. The
// extended buffer's slot k holds global plane wrap(zlo−Lo+k, nz), so the
// only thing this file supplies is the map from a tap to the slot — a plane
// offset — it reads; the tables are built once per Mesh.

package dist

import "tme4a/internal/grid"

// planeOffsets returns the flat offsets of the slots of an nz-plane
// extended buffer of planeLen points per plane, ascending (slot k at index
// k) or descending (slot nz−1−k at index k).
func planeOffsets(nz, planeLen int, descending bool) []int {
	off := make([]int, nz)
	for k := range off {
		slot := k
		if descending {
			slot = nz - 1 - k
		}
		off[k] = planeLen * slot
	}
	return off
}

// convZAccum accumulates the z-axis convolution with an even kernel into
// the owned block: dst[·,·,i] += Σ_t kernel[t]·plane(zlo+i+gc−t), summed as
// grid.ConvRow pairs mirrored taps. ext must
// hold the window [zlo−gc, zhi+gc), i.e. Lo = Hi = gc, so tap t of output
// plane i reads slot i+2gc−t: the window at onz−1−i of desc, the
// descending offsets of ext's slots.
//
//tme:noalloc
func convZAccum(dst, ext *grid.G, kernel []float64, desc []int) {
	plane, onz := dst.N[0]*dst.N[1], dst.N[2]
	for iz := 0; iz < onz; iz++ {
		grid.ConvRow(dst.Data[plane*iz:plane*(iz+1)], ext.Data, kernel, desc[onz-1-iz:], true)
	}
}

// restrictZ computes the z-axis two-scale restriction into the owned
// coarse block: dst[·,·,i] = Σ_m J[m]·finePlane(2(czlo+i)+m−half), m
// ascending. ext holds the fine-field window [2·czlo−half, 2·czhi+half−1),
// i.e. Lo = half, Hi = half−1 on the fine field, so tap m of output plane i
// reads slot 2i+m: the window at 2i of asc, the ascending offsets of ext's
// slots.
//
//tme:noalloc
func restrictZ(dst, ext *grid.G, J []float64, asc []int) {
	plane, conz := dst.N[0]*dst.N[1], dst.N[2]
	for iz := 0; iz < conz; iz++ {
		grid.TapRow(dst.Data[plane*iz:plane*(iz+1)], ext.Data, J, asc[2*iz:])
	}
}

// planeTaps is the prolongation tap list of one fine plane: coefficient e
// times the coarse plane at offset off[e] of the extended buffer.
type planeTaps struct {
	coef []float64
	off  []int
}

// buildProlongTaps simulates the serial prolongation scatter over the full
// coarse ring (source planes i ascending, taps m ascending:
// fine[wrap(2i+m)] += J[m]·coarse[i]) and records, for each fine plane this
// rank owns, its contributions in that serial order, as offsets into an
// extended buffer of planeLen points per plane. Folding a plane's list from
// +0 therefore reproduces the serial left-to-right sum bitwise, including
// wrap-around contributions. Panics if the chosen halo width does not cover
// a needed coarse plane — a plan-time invariant, fuzz-checked in
// halo_fuzz_test.go.
func buildProlongTaps(J []float64, cn, czlo, conz, ph, fzlo, fonz, planeLen int) []planeTaps {
	half := len(J) / 2
	fn := 2 * cn
	extNz := conz + 2*ph
	slotOf := func(i int) int {
		for k := 0; k < extNz; k++ {
			if wrapInt(czlo-ph+k, cn) == i {
				return k
			}
		}
		panic("dist: prolongation halo does not cover a needed coarse plane")
	}
	taps := make([]planeTaps, fonz)
	for i := 0; i < cn; i++ {
		for m := -half; m <= half; m++ {
			f := wrapInt(2*i+m, fn)
			if f < fzlo || f >= fzlo+fonz {
				continue
			}
			t := &taps[f-fzlo]
			t.coef = append(t.coef, J[m+half])
			t.off = append(t.off, planeLen*slotOf(i))
		}
	}
	return taps
}

// prolongZ sets the owned fine block from the coarse extended buffer by
// folding each fine plane's tap list. The serial scatter skips source
// values equal to zero; a fold that starts at +0 is unchanged, bit for bit,
// by adding their ±0 products, so no skip is needed here.
//
//tme:noalloc
func prolongZ(dst, ext *grid.G, taps []planeTaps) {
	plane := dst.N[0] * dst.N[1]
	for iz, t := range taps {
		grid.TapRow(dst.Data[plane*iz:plane*(iz+1)], ext.Data, t.coef, t.off)
	}
}
