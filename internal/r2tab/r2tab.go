// Package r2tab is the segmented-polynomial function table of the
// MDGRAPE-4A nonbond pipelines: a pair of radial functions E(s), F(s) of
// the squared distance s = r² — a pair energy and the force factor that
// multiplies the displacement — evaluated by table lookup and a cubic, with
// no square root or transcendental in the datapath.
//
// It is the one table implementation of the repository: every short-range
// path of the production pair kernel (internal/nonbond) evaluates through
// it.
//
// # Layout
//
// A segment is selected by the exponent and the top MantBits mantissa bits
// of s, read straight off the IEEE-754 representation
// (math.Float64bits(s) >> 45) — 128 segments per binary octave, each of
// constant relative width 1/128 to 1/256, with no logarithm, power or
// division in the lookup. One 64-byte entry (a cache line) holds the cubic
// coefficients of both functions in the offset δ = s − s₀ from the segment
// start s₀, which is s with its low 45 bits cleared; δ is exact.
//
// Each cubic interpolates its function at the two segment endpoints and two
// interior nodes placed where they minimise the interpolation error bound,
// so E and F are continuous (to rounding) across every segment and octave
// boundary — a trajectory never sees a force jump at a table seam.
package r2tab

import "math"

const (
	// MantBits is the number of leading mantissa bits that select a
	// segment within an octave.
	MantBits = 7
	// SegmentsPerOctave is the number of table entries per factor of two
	// in s.
	SegmentsPerOctave = 1 << MantBits

	shift    = 52 - MantBits
	fracMask = 1<<shift - 1
)

// Segment is one table entry: the two cubics of a segment, lowest order
// first, in δ = s − s₀.
type Segment struct {
	e, f [4]float64
}

// Table tabulates a function pair over [sMin, sMax]. It is immutable after
// New and safe for concurrent use.
type Table struct {
	fn   func(s float64) (e, f float64)
	base int // Float64bits(sMin) >> shift
	ent  []Segment
}

// interior nodes of the fit, as fractions of the segment width: with the
// endpoints pinned, ±(√2−1) on [−1, 1] equalises the three extrema of the
// node polynomial and so minimises the cubic interpolation error bound.
const (
	nodeLo = (2 - math.Sqrt2) / 2
	nodeHi = math.Sqrt2 / 2
)

// New tabulates fn over the segments that contain [sMin, sMax]; fn stays
// attached as the analytic fallback for arguments outside them. sMin must
// be a positive normal number. A range with sMax < sMin yields an empty
// table that always falls back.
func New(fn func(s float64) (e, f float64), sMin, sMax float64) *Table {
	if !(sMin >= 0x1p-1022) || math.IsInf(sMin, 0) || math.IsNaN(sMax) || math.IsInf(sMax, 0) {
		panic("r2tab: table range must be positive, normal and finite")
	}
	// A table is built once and then only read: its allocations are not the
	// steady-state kind //tme:noalloc callers answer for.
	t := &Table{fn: fn, base: int(math.Float64bits(sMin) >> shift)} //tmevet:ignore noalloc -- once per table
	n := 0
	if sMax >= sMin {
		n = int(math.Float64bits(sMax)>>shift) - t.base + 1
	}
	t.ent = make([]Segment, n) //tmevet:ignore noalloc -- once per table
	for k := range t.ent {
		s0 := math.Float64frombits(uint64(t.base+k) << shift)
		s1 := math.Float64frombits(uint64(t.base+k+1) << shift)
		h := s1 - s0
		// Nodes as representable arguments; their offsets in units of h are
		// exact (s₀ ≤ x ≤ 2s₀, h a power of two).
		x := [4]float64{s0, s1, s0 + nodeLo*h, s0 + nodeHi*h}
		var u, ye, yf [4]float64
		for i, xi := range x {
			u[i] = (xi - s0) / h
			ye[i], yf[i] = fn(xi)
		}
		t.ent[k] = Segment{e: fitCubic(u, ye, h), f: fitCubic(u, yf, h)}
	}
	return t
}

// fitCubic returns the monomial coefficients in δ = u·h of the cubic through
// (u[i], y[i]) with u[0] = 0, by Newton divided differences. The rescaling
// by powers of h is exact.
func fitCubic(u, y [4]float64, h float64) [4]float64 {
	d := y
	for lvl := 1; lvl < 4; lvl++ {
		for i := 3; i >= lvl; i-- {
			d[i] = (d[i] - d[i-1]) / (u[i] - u[i-lvl])
		}
	}
	// P(u) = d0 + d1·u + d2·u(u−u1) + d3·u(u−u1)(u−u2)
	a1 := d[1] - d[2]*u[1] + d[3]*u[1]*u[2]
	a2 := d[2] - d[3]*(u[1]+u[2])
	ih := 1 / h
	return [4]float64{d[0], a1 * ih, a2 * ih * ih, d[3] * ih * ih * ih}
}

// Lookup returns E(s) and F(s): the segment's cubics inside the table, the
// analytic function outside it (the pipeline raises a flag there and the
// general-purpose core takes the pair; it is rare in practice).
//
//tme:noalloc
func (t *Table) Lookup(s float64) (e, f float64) {
	if c, d := t.Segment(s); c != nil {
		return c.Cubic(d)
	}
	return t.fn(s)
}

// Segment returns the segment holding s and the exact offset δ = s − s₀
// from its start, or nil outside the table. With Cubic it is Lookup split
// in two pieces small enough for the compiler to inline into a pair loop
// (together they exceed its budget); on nil the caller takes Lookup, which
// falls back to the analytic function.
//
//tme:noalloc
func (t *Table) Segment(s float64) (c *Segment, d float64) {
	b := math.Float64bits(s)
	k := int(b>>shift) - t.base
	if ent := t.ent; uint(k) < uint(len(ent)) {
		return &ent[k], s - math.Float64frombits(b&^fracMask)
	}
	return nil, 0
}

// Cubic evaluates the segment's two cubics at offset d from its start, by
// Horner's rule with every product rounded (float64(…)), so that no
// architecture fuses a step into a multiply-add and the result has the same
// bits everywhere.
//
//tme:noalloc
func (c *Segment) Cubic(d float64) (e, f float64) {
	e = c.e[0] + float64(d*(c.e[1]+float64(d*(c.e[2]+float64(d*c.e[3])))))
	f = c.f[0] + float64(d*(c.f[1]+float64(d*(c.f[2]+float64(d*c.f[3])))))
	return e, f
}
