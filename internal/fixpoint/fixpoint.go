// Package fixpoint implements the fixed-point arithmetic of the
// MDGRAPE-4A datapaths: 32-bit two's-complement values with a tunable
// binary point (the paper's LRU uses a 24-bit fractional part for B-spline
// coefficients; grid data and force accumulation use 32-bit fixed point
// with a shiftable binary point; the global memory accumulates 32-bit
// fixed-point values on stored data; total potentials accumulate in 64-bit).
package fixpoint

import (
	"fmt"
	"math"
)

// Format describes a fixed-point representation: a signed 32-bit integer
// with Frac fractional bits.
type Format struct {
	Frac uint // number of fractional bits (binary point position)
}

// Q24 is the LRU coefficient format (24-bit fractional part).
var Q24 = Format{Frac: 24}

// Scale returns 2^Frac.
func (f Format) Scale() float64 { return float64(int64(1) << f.Frac) }

// Quantize converts v to the nearest representable fixed-point value,
// saturating at the int32 range.
func (f Format) Quantize(v float64) int32 {
	x := math.RoundToEven(v * f.Scale())
	if x > math.MaxInt32 {
		return math.MaxInt32
	}
	if x < math.MinInt32 {
		return math.MinInt32
	}
	return int32(x)
}

// Value converts a fixed-point value back to float64.
func (f Format) Value(x int32) float64 { return float64(x) / f.Scale() }

func (f Format) String() string { return fmt.Sprintf("Q%d.%d", 31-f.Frac, f.Frac) }

// SatAdd32 adds two 32-bit fixed-point values with saturation — the
// accumulate-on-write mode of the MDGRAPE-4A global memory.
func SatAdd32(a, b int32) int32 {
	s := int64(a) + int64(b)
	if s > math.MaxInt32 {
		return math.MaxInt32
	}
	if s < math.MinInt32 {
		return math.MinInt32
	}
	return int32(s)
}

// MulShift multiplies two fixed-point values and shifts the 64-bit product
// right by shift bits (round to nearest, ties away from zero), saturating
// to 32 bits — the GCU convolution primitive: grid(32-bit) × kernel(24-bit
// fraction) with a specified output binary point.
func MulShift(a, b int32, shift uint) int32 {
	p := int64(a) * int64(b)
	// Round to nearest.
	if shift > 0 {
		half := int64(1) << (shift - 1)
		if p >= 0 {
			p = (p + half) >> shift
		} else {
			p = -((-p + half) >> shift)
		}
	}
	if p > math.MaxInt32 {
		return math.MaxInt32
	}
	if p < math.MinInt32 {
		return math.MinInt32
	}
	return int32(p)
}

// Acc64 is a 64-bit fixed-point accumulator (used for total potential
// accumulation in the LRU). A sum of 32-bit terms cannot wrap it before
// 2^32 adds.
type Acc64 struct {
	Sum int64
	Fmt Format
}

// Add accumulates a 32-bit fixed-point value.
func (a *Acc64) Add(x int32) { a.Sum += int64(x) }

// Value returns the accumulated value as float64.
func (a *Acc64) Value() float64 { return float64(a.Sum) / a.Fmt.Scale() }

// Grid32 is a 3D grid of 32-bit fixed-point values — the GCU grid memory
// and LRU grid memory representation.
type Grid32 struct {
	N    [3]int
	Fmt  Format
	Data []int32
}

// NewGrid32 allocates a zeroed fixed-point grid.
func NewGrid32(nx, ny, nz int, fmtt Format) *Grid32 {
	return &Grid32{N: [3]int{nx, ny, nz}, Fmt: fmtt, Data: make([]int32, nx*ny*nz)}
}

// Idx returns the flat index with periodic wrapping.
func (g *Grid32) Idx(ix, iy, iz int) int {
	return wrap(ix, g.N[0]) + g.N[0]*(wrap(iy, g.N[1])+g.N[1]*wrap(iz, g.N[2]))
}

// AccumAt adds a fixed-point value at (ix, iy, iz) with saturation
// (GM accumulate-on-write).
func (g *Grid32) AccumAt(ix, iy, iz int, v int32) {
	i := g.Idx(ix, iy, iz)
	g.Data[i] = SatAdd32(g.Data[i], v)
}

// Float converts the grid to float64 values.
func (g *Grid32) Float() []float64 {
	out := make([]float64, len(g.Data))
	for i, v := range g.Data {
		out[i] = g.Fmt.Value(v)
	}
	return out
}

// QuantizeInto fills the grid from float64 data (len must match).
func (g *Grid32) QuantizeInto(data []float64) {
	if len(data) != len(g.Data) {
		panic("fixpoint: QuantizeInto length mismatch")
	}
	for i, v := range data {
		g.Data[i] = g.Fmt.Quantize(v)
	}
}

func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}
