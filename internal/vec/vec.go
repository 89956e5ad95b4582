// Package vec provides 3-component vector algebra and periodic-box
// geometry used by every particle module in the library.
package vec

import "math"

// V is a 3-vector with components in x, y, z order.
type V [3]float64

// Add returns a + b.
func (a V) Add(b V) V { return V{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }

// Sub returns a − b.
func (a V) Sub(b V) V { return V{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }

// Scale returns s·a.
func (a V) Scale(s float64) V { return V{s * a[0], s * a[1], s * a[2]} }

// Dot returns the inner product a·b.
func (a V) Dot(b V) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// Cross returns the vector product a×b.
func (a V) Cross(b V) V {
	return V{
		a[1]*b[2] - a[2]*b[1],
		a[2]*b[0] - a[0]*b[2],
		a[0]*b[1] - a[1]*b[0],
	}
}

// Norm2 returns |a|².
func (a V) Norm2() float64 { return a.Dot(a) }

// Norm returns |a|.
func (a V) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Normalize returns a/|a|. It panics on the zero vector.
func (a V) Normalize() V {
	n := a.Norm()
	if n == 0 {
		panic("vec: normalize zero vector")
	}
	return a.Scale(1 / n)
}

// Box is a rectangular periodic simulation box with edge lengths L.
type Box struct {
	L V
}

// NewBox returns a rectangular box with the given edge lengths.
func NewBox(lx, ly, lz float64) Box { return Box{L: V{lx, ly, lz}} }

// Cubic returns a cubic box with edge length l.
func Cubic(l float64) Box { return Box{L: V{l, l, l}} }

// Volume returns the box volume.
func (b Box) Volume() float64 { return b.L[0] * b.L[1] * b.L[2] }

// MinImage returns the minimum-image convention displacement equivalent
// to d, i.e. d shifted by integer multiples of the box edges so each
// component lies in [−L/2, L/2).
func (b Box) MinImage(d V) V {
	for k := 0; k < 3; k++ {
		d[k] -= b.L[k] * math.Round(d[k]/b.L[k])
	}
	return d
}

// MinImage1 is Box.MinImage for one component, for hot loops that keep the
// displacement in scalar locals (Go's SSA backend registerises float64
// variables but not the elements of a V): d − l·n with n = d·invL rounded to
// the nearest integer, the reciprocal invL = 1/l hoisted by the caller.
//
// The rounding is the magic-constant form (x + 1.5·2⁵²) − 1.5·2⁵²: adding
// the constant leaves x in a binade whose unit in the last place is 1, so the
// addition itself rounds x to an integer (to even on a tie) and the
// subtraction is exact. It is valid for |d·invL| < 2⁵¹ and costs two adds —
// math.Floor or math.Round would cost a CPU-feature test and a call at
// Go's default amd64 target. It returns the same bits as MinImage whenever
// the image is not within rounding of ±l/2 — in particular for every
// component of a pair inside a cutoff below l/2; at the half-box tie both
// return an image of magnitude l/2, possibly opposite ones. A zero image
// may carry the other sign.
func MinImage1(d, l, invL float64) float64 {
	const round = 0x1.8p52
	return d - l*((d*invL+round)-round)
}

// Wrap maps position r into the primary cell [0, L).
func (b Box) Wrap(r V) V {
	for k := 0; k < 3; k++ {
		r[k] -= b.L[k] * math.Floor(r[k]/b.L[k])
		if r[k] >= b.L[k] { // guard against floating rounding at the edge
			r[k] -= b.L[k]
		}
	}
	return r
}
