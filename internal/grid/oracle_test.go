package grid

// Line oracles. The loops below are the line-at-a-time kernels this
// package ran before the row-tap restructuring, kept verbatim (one strided
// line gathered at a time, one accumulator per output, the prolongation as
// a scatter) with only their scratch and index tables made local. The
// restriction and prolongation must reproduce them bit for bit — signed
// zeros included — on every shape, kernel width and worker count. The
// convolutions use their even kernels' mirrors instead (ConvRow): the
// separable passes pair mirrored taps and the direct 3D convolution also
// sums mirrored source rows. oracleMirrorConvAxis and
// oracleFoldedConvDirectAccum pin those orders bitwise, and the
// one-product-per-tap convLines and oracleConvDirectAccum stay as tolerance
// oracles, within convTol of the sum of the absolute terms.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tme4a/internal/bspline"
)

// oracleLines lists the 1D lines along one axis: n is the line length,
// stride the flat-index step along the axis, bases the flat index of the
// first element of every line.
func oracleLines(n3 [3]int, axis int) (n, stride int, bases []int) {
	nx, ny, nz := n3[0], n3[1], n3[2]
	switch axis {
	case 0:
		n, stride = nx, 1
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				bases = append(bases, nx*(y+ny*z))
			}
		}
	case 1:
		n, stride = ny, nx
		for z := 0; z < nz; z++ {
			for x := 0; x < nx; x++ {
				bases = append(bases, x+nx*ny*z)
			}
		}
	case 2:
		n, stride = nz, nx*ny
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				bases = append(bases, x+nx*y)
			}
		}
	}
	return n, stride, bases
}

func oracleConvAxis(dst, src *G, axis int, kernel []float64, accum bool) {
	n, stride, bases := oracleLines(src.N, axis)
	convLines(dst, src, kernel, n, stride, bases, 0, len(bases), accum)
}

func convLines(dst, src *G, kernel []float64, n, stride int, bases []int, lo, hi int, accum bool) {
	gc := len(kernel) / 2
	// The line padded with gc wrapped ghost cells on each side, so the tap
	// loop needs no modulo.
	pad := make([]float64, n+2*gc)
	for li := lo; li < hi; li++ {
		base := bases[li]
		for k := range pad {
			pad[k] = src.Data[base+wrap(k-gc, n)*stride]
		}
		for i := 0; i < n; i++ {
			var s float64
			// pad[i-m+gc] == src line at wrap(i-m, n); ascending kernel
			// index keeps the serial summation order.
			row := pad[i : i+2*gc+1]
			for t := 0; t < 2*gc+1; t++ {
				s += kernel[t] * row[2*gc-t]
			}
			if accum {
				dst.Data[base+i*stride] += s
			} else {
				dst.Data[base+i*stride] = s
			}
		}
	}
}

// oracleMirrorConvAxis is oracleConvAxis in ConvRow's order: the centre
// product, then kernel[t]·(x₋ + x₊) for each mirrored pair, t ascending.
func oracleMirrorConvAxis(dst, src *G, axis int, kernel []float64, accum bool) {
	n, stride, bases := oracleLines(src.N, axis)
	gc := len(kernel) / 2
	pad := make([]float64, n+2*gc)
	for _, base := range bases {
		for k := range pad {
			pad[k] = src.Data[base+wrap(k-gc, n)*stride]
		}
		for i := 0; i < n; i++ {
			row := pad[i : i+2*gc+1]
			s := kernel[gc] * row[gc]
			for t := 0; t < gc; t++ {
				s += float64(kernel[t] * (row[2*gc-t] + row[t]))
			}
			if accum {
				dst.Data[base+i*stride] += s
			} else {
				dst.Data[base+i*stride] = s
			}
		}
	}
}

// convTol bounds the distance between the two convolution orders, relative
// to the sum of the absolute values of the terms (and of the accumulated
// previous value).
const convTol = 1e-13

// assertConvWithin checks got against the one-product-per-tap order of
// oracleConvAxis, within convTol of Σ|terms|, which is oracleConvAxis run
// on the absolute kernel and source (each |c·x| is |c|·|x| exactly).
func assertConvWithin(t *testing.T, name string, prev, src *G, axis int, kernel []float64, accum bool, got *G) {
	t.Helper()
	abs := func(g *G) *G {
		a := &G{N: g.N, Data: slices.Clone(g.Data)}
		for i, v := range a.Data {
			a.Data[i] = math.Abs(v)
		}
		return a
	}
	want, scale := &G{N: prev.N, Data: slices.Clone(prev.Data)}, abs(prev)
	oracleConvAxis(want, src, axis, kernel, accum)
	absK := make([]float64, len(kernel))
	for i, c := range kernel {
		absK[i] = math.Abs(c)
	}
	oracleConvAxis(scale, abs(src), axis, absK, accum)
	for i, v := range got.Data {
		if d := math.Abs(v - want.Data[i]); !(d <= convTol*scale.Data[i]) {
			t.Fatalf("%s: point %d: %.17g, one-product-per-tap order %.17g (|Δ| %.3g > %g·Σ|terms| %.3g)",
				name, i, v, want.Data[i], d, convTol, scale.Data[i])
		}
	}
}

// oracleConvDirectAccum is the direct convolution in its defining order:
// one product per tap, ascending (mz, my, mx), folded from +0 and then added
// to dst. The folded order of ConvDirect3DAccum stays within convTol of it
// (assertDirectWithin).
func oracleConvDirectAccum(dst, src *G, kernel []float64, gc int) {
	k := 2*gc + 1
	nx, ny, nz := src.N[0], src.N[1], src.N[2]
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				var s float64
				for mz := -gc; mz <= gc; mz++ {
					for my := -gc; my <= gc; my++ {
						for mx := -gc; mx <= gc; mx++ {
							s += kernel[(mx+gc)+k*((my+gc)+k*(mz+gc))] * wrapAt(src, ix-mx, iy-my, iz-mz)
						}
					}
				}
				dst.Data[ix+dst.N[0]*(iy+dst.N[1]*iz)] += s
			}
		}
	}
}

// oracleFoldedConvDirectAccum is the direct convolution in the folded order
// ConvDirect3DAccum documents, one output point at a time: for ez, then ey,
// ascending from 0 to gc, the mirrored source rows are summed left to right
// into S — (−ey, −ez), then (+ey, −ez) if ey > 0, then (−ey, +ez) and
// (+ey, +ez) if ez > 0, each an offset subtracted from the output's (y, z) —
// and the x convolution of S in ConvRow's order, k(0)·S(ix) then
// k(d)·(S(ix+d) + S(ix−d)) for d = gc … 1, is added to a running sum that
// starts at +0; the running sum is then added to dst.
func oracleFoldedConvDirectAccum(dst, src *G, kernel []float64, gc int) {
	k := 2*gc + 1
	nx, ny, nz := src.N[0], src.N[1], src.N[2]
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				var run float64
				for ez := 0; ez <= gc; ez++ {
					for ey := 0; ey <= gc; ey++ {
						S := func(jx int) float64 {
							v := wrapAt(src, jx, iy-ey, iz-ez)
							if ey > 0 {
								v += wrapAt(src, jx, iy+ey, iz-ez)
							}
							if ez > 0 {
								v += wrapAt(src, jx, iy-ey, iz+ez)
								if ey > 0 {
									v += wrapAt(src, jx, iy+ey, iz+ez)
								}
							}
							return v
						}
						krow := kernel[k*((ey+gc)+k*(ez+gc)):]
						t := krow[gc] * S(ix)
						for d := gc; d >= 1; d-- {
							t += float64(krow[gc+d] * (S(ix+d) + S(ix-d)))
						}
						run += t
					}
				}
				dst.Data[ix+dst.N[0]*(iy+dst.N[1]*iz)] += run
			}
		}
	}
}

// assertDirectWithin checks got, the direct convolution of src added to a
// zero grid, against the defining order of oracleConvDirectAccum, within
// convTol of Σ|terms| (that oracle on the absolute kernel and source).
func assertDirectWithin(t *testing.T, name string, src *G, kernel []float64, gc int, got *G) {
	t.Helper()
	n := src.N
	want, scale := New(n[0], n[1], n[2]), New(n[0], n[1], n[2])
	oracleConvDirectAccum(want, src, kernel, gc)
	absSrc, absK := &G{N: src.N, Data: slices.Clone(src.Data)}, make([]float64, len(kernel))
	for i, v := range absSrc.Data {
		absSrc.Data[i] = math.Abs(v)
	}
	for i, c := range kernel {
		absK[i] = math.Abs(c)
	}
	oracleConvDirectAccum(scale, absSrc, absK, gc)
	for i, v := range got.Data {
		if d := math.Abs(v - want.Data[i]); !(d <= convTol*scale.Data[i]) {
			t.Fatalf("%s: point %d: %.17g, defining order %.17g (|Δ| %.3g > %g·Σ|terms| %.3g)",
				name, i, v, want.Data[i], d, convTol, scale.Data[i])
		}
	}
}

func oracleRestrictAxis(dst, src *G, axis int, J []float64) {
	n, sStride, sBases := oracleLines(src.N, axis)
	_, dStride, dBases := oracleLines(dst.N, axis)
	restrictLines(dst, src, J, n, sStride, dStride, sBases, dBases, 0, len(sBases))
}

func restrictLines(dst, src *G, J []float64, n, sStride, dStride int, sBases, dBases []int, lo, hi int) {
	half := len(J) / 2
	nj := 2*half + 1
	// Padded source line: pad[k] = src line at wrap(k-half, n).
	pad := make([]float64, n+2*half)
	for li := lo; li < hi; li++ {
		sb, db := sBases[li], dBases[li]
		for k := range pad {
			pad[k] = src.Data[sb+wrap(k-half, n)*sStride]
		}
		for i := 0; i < n/2; i++ {
			var s float64
			// pad[2i+m+half]; m ascending matches the serial order.
			row := pad[2*i : 2*i+nj]
			for m := 0; m < nj; m++ {
				s += J[m] * row[m]
			}
			dst.Data[db+i*dStride] = s
		}
	}
}

func oracleProlongAxis(dst, src *G, axis int, J []float64) {
	n, sStride, sBases := oracleLines(src.N, axis)
	_, dStride, dBases := oracleLines(dst.N, axis)
	prolongLines(dst, src, J, n, sStride, dStride, sBases, dBases, 0, len(sBases))
}

func prolongLines(dst, src *G, J []float64, n, sStride, dStride int, sBases, dBases []int, lo, hi int) {
	half := len(J) / 2
	for li := lo; li < hi; li++ {
		sb, db := sBases[li], dBases[li]
		// Each source line scatters only into its own destination line,
		// so lines stay independent; clear it first because dst may be
		// recycled scratch.
		for k := 0; k < 2*n; k++ {
			dst.Data[db+k*dStride] = 0
		}
		for i := 0; i < n; i++ {
			v := src.Data[sb+i*sStride]
			if v == 0 {
				continue
			}
			for m := -half; m <= half; m++ {
				k := wrap(2*i+m, 2*n)
				dst.Data[db+k*dStride] += J[m+half] * v
			}
		}
	}
}

var (
	oracleShapes = [][3]int{{32, 32, 32}, {16, 16, 16}, {8, 8, 8}, {16, 12, 10}, {18, 7, 9}}
	oracleProcs  = []int{1, 2, 7}
)

// namedGrid is one oracle source.
type namedGrid struct {
	name string
	g    *G
}

// oracleSources returns the sources every operator is checked on: random
// values, all zeros, and random values with zeros of both signs mixed in.
func oracleSources(rng *rand.Rand, n [3]int) []namedGrid {
	signed := randGrid(rng, n[0], n[1], n[2])
	for i := range signed.Data {
		switch rng.Intn(4) {
		case 0:
			signed.Data[i] = math.Copysign(0, -1)
		case 1:
			signed.Data[i] = 0
		}
	}
	return []namedGrid{
		{"random", randGrid(rng, n[0], n[1], n[2])},
		{"zero", New(n[0], n[1], n[2])},
		{"signedZeros", signed},
	}
}

// dirty returns a grid of the given shape filled with a recognisable
// non-zero pattern: the "previous contents" of an accumulate destination
// and the garbage an overwriting operator must not let through.
func dirty(n [3]int) *G {
	g := New(n[0], n[1], n[2])
	for i := range g.Data {
		g.Data[i] = 1e3 + float64(i%17)
	}
	return g
}

// TestConvAxisMatchesLineOracle: every convolution pass equals the
// mirrored-tap line oracle bitwise at every worker count, and that oracle
// stays within convTol of the one-product-per-tap order.
func TestConvAxisMatchesLineOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range oracleShapes {
		for _, gc := range []int{2, 8, 12} { // 17 and 25 taps outrun the 16-, 8- and 7-point rings
			kernel := randKernel(rng, gc)
			for _, ng := range oracleSources(rng, n) {
				sname, src := ng.name, ng.g
				for axis := 0; axis < 3; axis++ {
					for _, accum := range []bool{false, true} {
						name := fmt.Sprintf("%v gc=%d %s axis=%d accum=%v", n, gc, sname, axis, accum)
						want := dirty(n)
						oracleMirrorConvAxis(want, src, axis, kernel, accum)
						assertConvWithin(t, name, dirty(n), src, axis, kernel, accum, want)
						for _, procs := range oracleProcs {
							got := dirty(n)
							withGOMAXPROCS(procs, func() { convAxis(got, src, axis, kernel, accum) })
							assertBitwise(t, fmt.Sprintf("%s procs=%d", name, procs), want, got)
						}
					}
				}
			}
		}
	}
}

// TestConvDirectMatchesLineOracle: the direct convolution equals the
// folded-order oracle bitwise at every worker count, and that order stays
// within convTol of the defining one. The 8³ ring at g_c = 12 and the
// 7- and 9-point axes of 18×7×9 alias mirrored offsets onto one row.
func TestConvDirectMatchesLineOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, c := range []struct {
		n  [3]int
		gc []int
	}{
		{[3]int{16, 16, 16}, []int{2, 8}},
		{[3]int{8, 8, 8}, []int{2, 8, 12}},
		{[3]int{16, 12, 10}, []int{2, 8}},
		{[3]int{18, 7, 9}, []int{2, 8}},
		{[3]int{32, 32, 32}, []int{2}},
	} {
		for _, gc := range c.gc {
			kernel := randKernel3(rng, gc)
			for _, ng := range oracleSources(rng, c.n) {
				sname, src := ng.name, ng.g
				if gc > 2 && sname == "zero" {
					continue // the wide kernels are the slow cases; one zero source per shape is enough
				}
				name := fmt.Sprintf("%v gc=%d %s", c.n, gc, sname)
				folded := New(c.n[0], c.n[1], c.n[2])
				oracleFoldedConvDirectAccum(folded, src, kernel, gc)
				assertDirectWithin(t, name, src, kernel, gc, folded)
				want := dirty(c.n)
				oracleFoldedConvDirectAccum(want, src, kernel, gc)
				for _, procs := range oracleProcs {
					got := dirty(c.n)
					withGOMAXPROCS(procs, func() { ConvDirect3DAccum(got, src, kernel, gc) })
					assertBitwise(t, fmt.Sprintf("%s procs=%d", name, procs), want, got)
				}
			}
		}
	}
}

// TestConvDirect3DRejectsUnevenKernel: the direct convolution folds the
// kernel's mirrors together, so a kernel one ulp off even along any one
// axis is refused rather than read by its octant.
func TestConvDirect3DRejectsUnevenKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	const gc = 2
	k := 2*gc + 1
	src := New(8, 8, 8)
	for axis := 0; axis < 3; axis++ {
		kernel := randKernel3(rng, gc)
		var m [3]int // an entry off the mirror plane of this axis only
		m[axis] = 1
		i := (m[0] + gc) + k*((m[1]+gc)+k*(m[2]+gc))
		kernel[i] = math.Nextafter(kernel[i], math.Inf(1))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("axis %d: ConvDirect3DAccum accepted a kernel uneven by one ulp", axis)
				}
			}()
			ConvDirect3DAccum(New(8, 8, 8), src, kernel, gc)
		}()
	}
}

func TestRestrictProlongMatchLineOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, n := range oracleShapes {
		for _, order := range []int{2, 6, 16} { // 17 two-scale taps outrun the small rings
			J := bspline.TwoScale(order)
			for _, ng := range oracleSources(rng, n) {
				sname, src := ng.name, ng.g
				for axis := 0; axis < 3; axis++ {
					up := n
					up[axis] *= 2
					want := dirty(up)
					oracleProlongAxis(want, src, axis, J)
					for _, procs := range oracleProcs {
						got := dirty(up)
						withGOMAXPROCS(procs, func() { ProlongAxisInto(got, src, axis, J) })
						assertBitwise(t, fmt.Sprintf("prolong %v p=%d %s axis=%d procs=%d", n, order, sname, axis, procs), want, got)
					}
					if n[axis]%2 != 0 {
						continue
					}
					down := n
					down[axis] /= 2
					want = dirty(down)
					oracleRestrictAxis(want, src, axis, J)
					for _, procs := range oracleProcs {
						got := dirty(down)
						withGOMAXPROCS(procs, func() { RestrictAxisInto(got, src, axis, J) })
						assertBitwise(t, fmt.Sprintf("restrict %v p=%d %s axis=%d procs=%d", n, order, sname, axis, procs), want, got)
					}
				}
			}
		}
	}
}

// TestTapRowTilesAndTail drives the row kernel directly over every length
// around the tile width, so each tail of 0–7 points is compared with the
// plain fold from +0, over a destination holding stale values.
func TestTapRowTilesAndTail(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	coef := make([]float64, 7) // any tap list, not only a mirrored one
	for e := range coef {
		coef[e] = rng.NormFloat64()
	}
	off := make([]int, len(coef))
	for e := range off {
		off[e] = rng.Intn(9)
	}
	src := make([]float64, 64)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	for n := 0; n <= 25; n++ {
		want := make([]float64, n)
		got := make([]float64, n)
		for i := range want {
			got[i] = rng.NormFloat64()
			var s float64
			for e, c := range coef {
				s += c * src[off[e]+i]
			}
			want[i] = s
		}
		TapRow(got, src, coef, off)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("n=%d i=%d: got %.17g want %.17g", n, i, got[i], want[i])
			}
		}
	}
}

// TestConvRowTilesAndTail is TestTapRowTilesAndTail for the mirrored-tap
// kernel: every length around the tile width, both modes, against the plain
// per-output fold, on values that include zeros of both signs (an all-zero
// output keeps the sign the fold gives it).
func TestConvRowTilesAndTail(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	coef := randKernel(rng, 3)
	off := make([]int, len(coef))
	for e := range off {
		off[e] = rng.Intn(9)
	}
	src := make([]float64, 64)
	for i := range src {
		switch rng.Intn(3) {
		case 0:
			src[i] = math.Copysign(0, -1)
		case 1:
			src[i] = 0
		default:
			src[i] = rng.NormFloat64()
		}
	}
	g := len(coef) / 2
	for n := 0; n <= 25; n++ {
		for _, accum := range []bool{false, true} {
			want := make([]float64, n)
			got := make([]float64, n)
			for i := range want {
				prev := rng.NormFloat64()
				if rng.Intn(4) == 0 {
					prev = math.Copysign(0, -1)
				}
				got[i] = prev
				s := coef[g] * src[off[g]+i]
				for e := 0; e < g; e++ {
					s += float64(coef[e] * (src[off[e]+i] + src[off[2*g-e]+i]))
				}
				if accum {
					s = prev + s
				}
				want[i] = s
			}
			ConvRow(got, src, coef, off, accum)
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("n=%d accum=%v i=%d: got %.17g want %.17g", n, accum, i, got[i], want[i])
				}
			}
		}
	}
}
