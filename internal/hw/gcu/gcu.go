// Package gcu models the MDGRAPE-4A grid convolution unit: the module
// embedded in the network interface that performs range-limited separable
// convolutions, restrictions and prolongations on 4×4×4 grid blocks
// (paper Sec. IV.B).
//
// Functional face: 1D periodic convolutions over 32-bit fixed-point grid
// data with 24-bit fixed-point kernel coefficients and a shiftable output
// binary point, plus exact fixed-point two-scale restriction/prolongation
// (the J coefficients are multiples of 2^{1−p}, hence exactly
// representable in the coefficient registers).
//
// Cycle face: four convolution units of four grids each (16 points/cycle
// peak) throttled to 12 points/cycle by the network-buffer feed rate; the
// unit runs at the 0.6 GHz SoC clock. Supported local grids are one or
// eight 4×4×4 blocks per node (global 32³ or 64³), g_c ∈ {8, 12}.
package gcu

import (
	"tme4a/internal/fixpoint"
)

// BlockSide is the edge of the GCU's basic data unit (4×4×4 mesh points).
const BlockSide = 4

// PointsPerCycle is the sustained convolution throughput (feed-rate
// limited; the peak is 16).
const PointsPerCycle = 12

// Kernel is a 1D convolution kernel quantized to the GCU coefficient
// register format (24-bit fraction).
type Kernel struct {
	Coefs []int32 // length 2·gc+1
	Fmt   fixpoint.Format
}

// QuantizeKernel converts a float kernel (indexed [m+gc]) to the register
// format.
func QuantizeKernel(k []float64, f fixpoint.Format) Kernel {
	q := make([]int32, len(k))
	for i, v := range k {
		q[i] = f.Quantize(v)
	}
	return Kernel{Coefs: q, Fmt: f}
}

// ConvAxis performs the periodic fixed-point 1D convolution of src along
// axis, accumulating 64-bit products and requantizing once per output
// point:
//
//	dst[n] = Σ_{|m| ≤ gc} K[m]·src[n−m]  (paper Eq. (18), applied per axis)
//
// The output binary point follows dst.Fmt — the GCU's shiftable binary
// point, used to avoid overflow as magnitudes grow through the axis
// passes. dst must have the same shape as src and may not alias it.
func ConvAxis(dst, src *fixpoint.Grid32, axis int, k Kernel) {
	if dst.N != src.N {
		panic("gcu: ConvAxis shape mismatch")
	}
	if src.Fmt.Frac+k.Fmt.Frac < dst.Fmt.Frac {
		panic("gcu: ConvAxis output format finer than the accumulator")
	}
	shift := src.Fmt.Frac + k.Fmt.Frac - dst.Fmt.Frac
	gc := len(k.Coefs) / 2
	n := src.N[axis]
	nx, ny := src.N[0], src.N[1]
	stride := [3]int{1, nx, nx * ny}[axis]
	var outer [2]int
	switch axis {
	case 0:
		outer = [2]int{ny, src.N[2]}
	case 1:
		outer = [2]int{nx, src.N[2]}
	default:
		outer = [2]int{nx, ny}
	}
	obase := func(a, b int) int {
		switch axis {
		case 0:
			return nx * (a + ny*b)
		case 1:
			return a + nx*ny*b
		default:
			return a + nx*b
		}
	}
	line := make([]int32, n)
	for b := 0; b < outer[1]; b++ {
		for a := 0; a < outer[0]; a++ {
			base := obase(a, b)
			for i := 0; i < n; i++ {
				line[i] = src.Data[base+i*stride]
			}
			for i := 0; i < n; i++ {
				var acc int64
				for m := -gc; m <= gc; m++ {
					j := i - m
					j %= n
					if j < 0 {
						j += n
					}
					acc += int64(k.Coefs[m+gc]) * int64(line[j])
				}
				dst.Data[base+i*stride] = requant(acc, shift)
			}
		}
	}
}

// Restrict applies the fixed-point two-scale restriction along all axes;
// the J coefficients (multiples of 2^{1−p}) are exact in the register
// format, so the only rounding is the final requantization per point.
func Restrict(src *fixpoint.Grid32, j Kernel) *fixpoint.Grid32 {
	cur := src
	for axis := 0; axis < 3; axis++ {
		cur = restrictAxis(cur, axis, j)
	}
	return cur
}

func restrictAxis(src *fixpoint.Grid32, axis int, j Kernel) *fixpoint.Grid32 {
	half := len(j.Coefs) / 2
	n := src.N[axis]
	dn := src.N
	dn[axis] = n / 2
	dst := fixpoint.NewGrid32(dn[0], dn[1], dn[2], src.Fmt)
	forEach(src, dst, axis, func(get func(int) int32, set func(int, int32)) {
		for i := 0; i < n/2; i++ {
			var acc int64
			for m := -half; m <= half; m++ {
				idx := (2*i + m) % n
				if idx < 0 {
					idx += n
				}
				acc += int64(j.Coefs[m+half]) * int64(get(idx))
			}
			set(i, requant(acc, j.Fmt.Frac))
		}
	})
	return dst
}

// Prolong applies the fixed-point two-scale prolongation along all axes.
func Prolong(src *fixpoint.Grid32, j Kernel) *fixpoint.Grid32 {
	cur := src
	for axis := 0; axis < 3; axis++ {
		cur = prolongAxis(cur, axis, j)
	}
	return cur
}

func prolongAxis(src *fixpoint.Grid32, axis int, j Kernel) *fixpoint.Grid32 {
	half := len(j.Coefs) / 2
	n := src.N[axis]
	dn := src.N
	dn[axis] = n * 2
	dst := fixpoint.NewGrid32(dn[0], dn[1], dn[2], src.Fmt)
	forEach(src, dst, axis, func(get func(int) int32, set func(int, int32)) {
		for i := 0; i < 2*n; i++ {
			var acc int64
			// dst[i] = Σ_m J[i−2n']·src[n']; i−2n' = m ∈ [−half, half].
			for m := -half; m <= half; m++ {
				num := i - m
				if num&1 != 0 {
					continue // m must match the parity of i
				}
				np := (num / 2) % n
				if np < 0 {
					np += n
				}
				acc += int64(j.Coefs[m+half]) * int64(get(np))
			}
			set(i, requant(acc, j.Fmt.Frac))
		}
	})
	return dst
}

// forEach iterates all lines along axis, giving the body accessors for the
// source line (length src.N[axis]) and the destination line (whose length
// may differ along the axis).
func forEach(src, dst *fixpoint.Grid32, axis int, body func(get func(int) int32, set func(int, int32))) {
	sStride := [3]int{1, src.N[0], src.N[0] * src.N[1]}[axis]
	dStride := [3]int{1, dst.N[0], dst.N[0] * dst.N[1]}[axis]
	var outer [2]int
	switch axis {
	case 0:
		outer = [2]int{src.N[1], src.N[2]}
	case 1:
		outer = [2]int{src.N[0], src.N[2]}
	default:
		outer = [2]int{src.N[0], src.N[1]}
	}
	base := func(g *fixpoint.Grid32, a, b int) int {
		switch axis {
		case 0:
			return g.N[0] * (a + g.N[1]*b)
		case 1:
			return a + g.N[0]*g.N[1]*b
		default:
			return a + g.N[0]*b
		}
	}
	for b := 0; b < outer[1]; b++ {
		for a := 0; a < outer[0]; a++ {
			sb := base(src, a, b)
			db := base(dst, a, b)
			body(
				func(i int) int32 { return src.Data[sb+i*sStride] },
				func(i int, v int32) { dst.Data[db+i*dStride] = v },
			)
		}
	}
}

// requant shifts a 64-bit accumulator down by frac bits with round to
// nearest and saturation to 32 bits (the GCU's output binary-point shift).
func requant(acc int64, frac uint) int32 {
	if frac > 0 {
		half := int64(1) << (frac - 1)
		if acc >= 0 {
			acc = (acc + half) >> frac
		} else {
			acc = -((-acc + half) >> frac)
		}
	}
	if acc > 2147483647 {
		return 2147483647
	}
	if acc < -2147483648 {
		return -2147483648
	}
	return int32(acc)
}

// ConvCycles returns the GCU cycles to convolve a node's local grid:
// localPoints outputs × taps MACs per axis × 3 axes × m Gaussians at the
// sustained 12 MAC-lanes... the unit evaluates 12 grid points per cycle,
// each absorbing one incoming-block tap, so total MACs / 12.
func ConvCycles(localPoints, taps, m int) int {
	macs := localPoints * taps * 3 * m
	return (macs + PointsPerCycle - 1) / PointsPerCycle
}

// RestrictCycles returns cycles for the two-scale restriction of a local
// grid (output points × (p+1) taps × 3 axes / 12).
func RestrictCycles(localPoints, p int) int {
	outs := localPoints / 8 // downsampled by 2 per axis
	macs := outs * (p + 1) * 3
	c := (macs + PointsPerCycle - 1) / PointsPerCycle
	if c < 1 {
		c = 1
	}
	return c
}

// ProlongCycles returns cycles for the prolongation onto a local grid.
func ProlongCycles(localPoints, p int) int {
	macs := localPoints * (p + 1) * 3 / 2 // half the taps hit odd parity
	c := (macs + PointsPerCycle - 1) / PointsPerCycle
	if c < 1 {
		c = 1
	}
	return c
}
