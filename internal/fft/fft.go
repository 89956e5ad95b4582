// Package fft implements fast Fourier transforms for power-of-two sizes.
//
// It provides cached 1D plans (iterative radix-2 Cooley–Tukey with
// precomputed twiddle factors) and 3D transforms over flat slices. All paper
// grid sizes (16³, 32³, 64³) are powers of two; this package substitutes the
// vendor FFT libraries used by the original SPME implementations.
//
// Convention: Forward computes X[k] = Σ_n x[n]·e^{−2πi nk/N} (unnormalised);
// Inverse divides by N so that Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Plan holds the precomputed tables for 1D transforms of a fixed
// power-of-two length. Plans are safe for concurrent use.
type Plan struct {
	n       int
	logn    int
	rev     []int32      // bit-reversal permutation
	twiddle []complex128 // e^{-2πi k / n}, k = 0..n/2-1
}

var (
	planMu    sync.Mutex
	planCache = map[int]*Plan{}
)

// NewPlan returns a transform plan for length n, which must be a power of
// two and at least 1. Plans are cached and shared.
func NewPlan(n int) *Plan {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	planMu.Lock()
	defer planMu.Unlock()
	if p, ok := planCache[n]; ok {
		return p
	}
	p := &Plan{n: n, logn: bits.TrailingZeros(uint(n))}
	p.rev = make([]int32, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int32(bits.Reverse(uint(i)) >> (bits.UintSize - p.logn))
	}
	p.twiddle = make([]complex128, n/2)
	for k := range p.twiddle {
		theta := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = complex(math.Cos(theta), math.Sin(theta))
	}
	planCache[n] = p
	return p
}

// Forward transforms x in place (unnormalised DFT). len(x) must equal the
// plan length.
//
//tme:noalloc
func (p *Plan) Forward(x []complex128) { p.transform(x, false) }

// Inverse transforms x in place, including the 1/N normalisation.
//
//tme:noalloc
func (p *Plan) Inverse(x []complex128) {
	p.transform(x, true)
	inv := 1 / float64(p.n)
	for i := range x {
		x[i] = complex(real(x[i])*inv, imag(x[i])*inv)
	}
}

// transform runs the in-place iterative radix-2 butterflies.
//
//tme:noalloc
func (p *Plan) transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: data length %d does not match plan length %d", len(x), p.n))
	}
	n := p.n
	if n == 1 {
		return
	}
	// Bit-reversal permutation.
	for i := 0; i < n; i++ {
		j := int(p.rev[i])
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Iterative butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[tw]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				t := w * x[k+half]
				x[k+half] = x[k] - t
				x[k] = x[k] + t
				tw += step
			}
		}
	}
}
