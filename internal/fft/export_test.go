package fft

import "fmt"

// Plan3 performs complex 3D transforms on data stored x-fastest, index =
// ix + nx*(iy + ny*iz): the tests' reference for RealPlan3.
type Plan3 struct {
	Nx, Ny, Nz int
	px, py, pz *Plan
}

// NewPlan3 returns a 3D plan for an nx×ny×nz grid (each a power of two).
func NewPlan3(nx, ny, nz int) *Plan3 {
	return &Plan3{
		Nx: nx, Ny: ny, Nz: nz,
		px: NewPlan(nx), py: NewPlan(ny), pz: NewPlan(nz),
	}
}

// Size returns the number of complex points nx·ny·nz.
func (p *Plan3) Size() int { return p.Nx * p.Ny * p.Nz }

// Forward computes the unnormalised 3D DFT of data in place.
func (p *Plan3) Forward(data []complex128) { p.transform3(data, false) }

// Inverse computes the normalised (÷N³ total) inverse 3D DFT in place.
func (p *Plan3) Inverse(data []complex128) { p.transform3(data, true) }

// transform3 applies the three 1D passes with a pooled strided-line
// buffer, so repeated transforms of a fixed-size grid allocate nothing.
func (p *Plan3) transform3(data []complex128, inverse bool) {
	if len(data) != p.Size() {
		panic(fmt.Sprintf("fft: data length %d does not match 3D plan size %d", len(data), p.Size()))
	}
	nx, ny, nz := p.Nx, p.Ny, p.Nz
	// x-lines are contiguous.
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			off := nx * (y + ny*z)
			if inverse {
				p.px.Inverse(data[off : off+nx])
			} else {
				p.px.Forward(data[off : off+nx])
			}
		}
	}
	// y-lines have stride nx.
	rp := getCBuf(max(ny, nz))
	row := *rp
	for z := 0; z < nz; z++ {
		for x := 0; x < nx; x++ {
			base := x + nx*ny*z
			for y := 0; y < ny; y++ {
				row[y] = data[base+nx*y]
			}
			if inverse {
				p.py.Inverse(row[:ny])
			} else {
				p.py.Forward(row[:ny])
			}
			for y := 0; y < ny; y++ {
				data[base+nx*y] = row[y]
			}
		}
	}
	// z-lines have stride nx*ny.
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			base := x + nx*y
			for z := 0; z < nz; z++ {
				row[z] = data[base+nx*ny*z]
			}
			if inverse {
				p.pz.Inverse(row[:nz])
			} else {
				p.pz.Forward(row[:nz])
			}
			for z := 0; z < nz; z++ {
				data[base+nx*ny*z] = row[z]
			}
		}
	}
	cbufPool.Put(rp)
}
