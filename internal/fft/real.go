package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"tme4a/internal/obs"
	"tme4a/internal/par"
)

// cbufPool recycles per-worker complex scratch rows so the 3D passes
// allocate nothing in steady state.
var cbufPool = sync.Pool{New: func() interface{} { return new([]complex128) }}

//tme:noalloc
func getCBuf(n int) *[]complex128 {
	p := cbufPool.Get().(*[]complex128)
	if cap(*p) < n {
		*p = make([]complex128, n) //tmevet:ignore noalloc -- grow-once: reused via cbufPool in steady state
	}
	*p = (*p)[:n]
	return p
}

// rowGrain keeps each parallel chunk of 1D transforms at a useful size:
// roughly 4096 butterfly operations per chunk.
func rowGrain(n int) int {
	work := n * (bits.Len(uint(n)) + 1)
	g := 4096 / (work + 1)
	if g < 1 {
		g = 1
	}
	return g
}

// RealPlan transforms N real samples using an N/2-point complex FFT (the
// classic packing trick), producing the non-redundant half spectrum
// X[0..N/2] (N/2+1 bins; X[0] and X[N/2] are real).
type RealPlan struct {
	n    int
	half *Plan
	// w[k] = e^{-2πi k/n}, k = 0..n/2.
	w []complex128
}

// NewRealPlan returns a plan for even power-of-two length n ≥ 2.
func NewRealPlan(n int) *RealPlan {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: real length %d is not a power of two ≥ 2", n))
	}
	p := &RealPlan{n: n, half: NewPlan(n / 2)}
	p.w = make([]complex128, n/2+1)
	for k := range p.w {
		theta := -2 * math.Pi * float64(k) / float64(n)
		p.w[k] = complex(math.Cos(theta), math.Sin(theta))
	}
	return p
}

// Forward computes the half spectrum of the n real samples into dst
// (length n/2+1). scratch must have length ≥ n/2.
//
//tme:noalloc
func (p *RealPlan) Forward(src []float64, dst, scratch []complex128) {
	n := p.n
	h := n / 2
	c := scratch[:h]
	for j := 0; j < h; j++ {
		c[j] = complex(src[2*j], src[2*j+1])
	}
	p.half.Forward(c)
	// Unpack: A[k] = E[k] + W^k·O[k], with
	// E[k] = (C[k]+conj(C[h−k]))/2, O[k] = (C[k]−conj(C[h−k]))/(2i).
	for k := 0; k <= h; k++ {
		var ck, chk complex128
		if k == h {
			ck = c[0]
		} else {
			ck = c[k]
		}
		if k == 0 {
			chk = c[0]
		} else {
			chk = c[h-k]
		}
		cc := complex(real(chk), -imag(chk))
		e := (ck + cc) * 0.5
		o := (ck - cc) * complex(0, -0.5)
		dst[k] = e + p.w[k]*o
	}
}

// Inverse reconstructs n real samples from the half spectrum src (length
// n/2+1), including the 1/n normalization. scratch must have length ≥ n/2.
//
//tme:noalloc
func (p *RealPlan) Inverse(src []complex128, dst []float64, scratch []complex128) {
	n := p.n
	h := n / 2
	c := scratch[:h]
	// Repack: C[k] = E[k] + i·W^{-k}... invert the unpacking:
	// E[k] = (A[k]+conj(A[h−k]))/2, O[k] = conj(W^k)·(A[k]−conj(A[h−k]))/2,
	// C[k] = E[k] + i·O[k].
	for k := 0; k < h; k++ {
		ak := src[k]
		ahk := src[h-k]
		cahk := complex(real(ahk), -imag(ahk))
		e := (ak + cahk) * 0.5
		o := (ak - cahk) * 0.5 * conj(p.w[k])
		c[k] = e + complex(0, 1)*o
	}
	p.half.Inverse(c)
	for j := 0; j < h; j++ {
		dst[2*j] = real(c[j])
		dst[2*j+1] = imag(c[j])
	}
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }

// RealPlan3 performs 3D transforms of real data (x-fastest layout) storing
// only the non-redundant half spectrum along x: hx = nx/2+1 complex bins.
// This halves the work and memory of the y/z passes relative to a full
// complex transform — the layout used for the SPME reciprocal solve, where
// the input grid and the Green function are real.
type RealPlan3 struct {
	Nx, Ny, Nz int
	Hx         int // nx/2 + 1
	px         *RealPlan
	py, pz     *Plan
	// o, when non-nil, times Forward/Inverse as the fft stage (which nests
	// inside the top-SPME stage) and counts transforms.
	o *obs.Recorder
}

// SetObs attaches a stage recorder (nil detaches). Not safe to call
// concurrently with Forward/Inverse.
func (p *RealPlan3) SetObs(r *obs.Recorder) { p.o = r }

// NewRealPlan3 returns a 3D real-transform plan.
func NewRealPlan3(nx, ny, nz int) *RealPlan3 {
	return &RealPlan3{
		Nx: nx, Ny: ny, Nz: nz, Hx: nx/2 + 1,
		px: NewRealPlan(nx),
		py: NewPlan(ny),
		pz: NewPlan(nz),
	}
}

// SpectrumLen returns the half-spectrum size hx·ny·nz.
func (p *RealPlan3) SpectrumLen() int { return p.Hx * p.Ny * p.Nz }

// Forward computes the half spectrum of real data (length nx·ny·nz) into
// spec (length SpectrumLen), indexed kx + Hx·(ky + Ny·kz).
//
//tme:noalloc
func (p *RealPlan3) Forward(data []float64, spec []complex128) {
	nx, ny, nz, hx := p.Nx, p.Ny, p.Nz, p.Hx
	if len(data) != nx*ny*nz || len(spec) != p.SpectrumLen() {
		panic("fft: RealPlan3 Forward size mismatch")
	}
	sp := p.o.Start(obs.StageFFT)
	p.o.Add(obs.CounterFFTTransforms, 1)
	defer sp.Stop()
	// Every 1D line is transformed independently with per-worker scratch,
	// so the passes parallelize with bitwise-deterministic results. The
	// y-pass (stride hx) and z-pass (stride hx·ny) run on the half spectrum.
	a := pass3{p, data, spec, false}
	par.ForRangeGrain(nz*ny, rowGrain(nx), a, pass3.x)
	par.ForRangeGrain(nz*hx, rowGrain(ny), a, pass3.y)
	par.ForRangeGrain(ny*hx, rowGrain(nz), a, pass3.z)
}

// pass3 is the argument of the parallel passes of one 3D transform; its
// methods are the per-chunk bodies.
type pass3 struct {
	p       *RealPlan3
	data    []float64
	spec    []complex128
	inverse bool
}

// x runs the r2c (forward) or c2r (inverse) x-transform on rows [lo, hi)
// with pooled scratch.
//
//tme:noalloc
func (a pass3) x(lo, hi int) {
	p := a.p
	nx, hx := p.Nx, p.Hx
	sp := getCBuf(nx / 2)
	for r := lo; r < hi; r++ {
		re := a.data[nx*r : nx*r+nx]
		cx := a.spec[hx*r : hx*r+hx]
		if a.inverse {
			p.px.Inverse(cx, re, *sp)
		} else {
			p.px.Forward(re, cx, *sp)
		}
	}
	cbufPool.Put(sp)
}

// y transforms the y-lines (stride hx) indexed by columns [lo, hi) over
// (x, z).
//
//tme:noalloc
func (a pass3) y(lo, hi int) {
	p, spec := a.p, a.spec
	ny, hx := p.Ny, p.Hx
	rp := getCBuf(ny)
	row := *rp
	for c := lo; c < hi; c++ {
		x, z := c%hx, c/hx
		base := x + hx*ny*z
		for y := 0; y < ny; y++ {
			row[y] = spec[base+hx*y]
		}
		if a.inverse {
			p.py.Inverse(row[:ny])
		} else {
			p.py.Forward(row[:ny])
		}
		for y := 0; y < ny; y++ {
			spec[base+hx*y] = row[y]
		}
	}
	cbufPool.Put(rp)
}

// z transforms the z-lines (stride hx·ny) indexed by columns [lo, hi) over
// (x, y).
//
//tme:noalloc
func (a pass3) z(lo, hi int) {
	p, spec := a.p, a.spec
	ny, nz, hx := p.Ny, p.Nz, p.Hx
	rp := getCBuf(nz)
	row := *rp
	for c := lo; c < hi; c++ {
		x, y := c%hx, c/hx
		base := x + hx*y
		for z := 0; z < nz; z++ {
			row[z] = spec[base+hx*ny*z]
		}
		if a.inverse {
			p.pz.Inverse(row[:nz])
		} else {
			p.pz.Forward(row[:nz])
		}
		for z := 0; z < nz; z++ {
			spec[base+hx*ny*z] = row[z]
		}
	}
	cbufPool.Put(rp)
}

// Inverse reconstructs real data from the half spectrum (normalized).
// spec is modified in place.
//
//tme:noalloc
func (p *RealPlan3) Inverse(spec []complex128, data []float64) {
	nx, ny, nz, hx := p.Nx, p.Ny, p.Nz, p.Hx
	if len(data) != nx*ny*nz || len(spec) != p.SpectrumLen() {
		panic("fft: RealPlan3 Inverse size mismatch")
	}
	sp := p.o.Start(obs.StageFFT)
	p.o.Add(obs.CounterFFTTransforms, 1)
	defer sp.Stop()
	a := pass3{p, data, spec, true}
	par.ForRangeGrain(ny*hx, rowGrain(nz), a, pass3.z)
	par.ForRangeGrain(nz*hx, rowGrain(ny), a, pass3.y)
	par.ForRangeGrain(nz*ny, rowGrain(nx), a, pass3.x)
}
