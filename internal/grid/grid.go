// Package grid provides periodic 3D scalar grids and the grid-to-grid
// operations of multilevel mesh methods: axis-wise (separable) convolutions,
// range-limited direct 3D convolutions, and the two-scale restriction and
// prolongation operators.
//
// Data is stored in a flat slice, x-fastest: index = ix + Nx·(iy + Ny·iz),
// matching the layout of internal/fft.RealPlan3.
//
// Every grid-to-grid operator is a tap sum — an output point is
// Σ_e coef[e]·src[…] in a fixed order — run by a row kernel that walks
// contiguous x-rows with a tile of independent accumulators: the x pass
// over a padded row, y and z passes as taps over whole source rows and
// planes. Convolutions take an even kernel and run ConvRow, which adds each
// mirrored pair of source values before its one multiply (g+1 products per
// output of a 2g+1-tap kernel); the direct 3D convolution first adds the
// source rows its kernel's y and z mirrors share, then runs ConvRow on the
// sum. Restriction and prolongation run TapRow, one product per tap folded
// from +0. The passes are split over output rows with par.ForRangeGrain; an
// output's arithmetic does not depend on the split or on its place in a
// tile, so results are bitwise independent of GOMAXPROCS.
package grid

import (
	"fmt"
	"sync"

	"tme4a/internal/obs"
	"tme4a/internal/par"
)

// G is a periodic 3D scalar grid.
type G struct {
	N    [3]int
	Data []float64
}

// New returns a zeroed nx×ny×nz grid.
func New(nx, ny, nz int) *G {
	if nx < 1 || ny < 1 || nz < 1 {
		panic(fmt.Sprintf("grid: invalid dimensions %d×%d×%d", nx, ny, nz))
	}
	return &G{N: [3]int{nx, ny, nz}, Data: make([]float64, nx*ny*nz)}
}

// Len returns the total number of grid points.
func (g *G) Len() int { return g.N[0] * g.N[1] * g.N[2] }

// Zero clears the grid.
func (g *G) Zero() {
	for i := range g.Data {
		g.Data[i] = 0
	}
}

func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Pool recycles grids by shape so steady-state mesh pipelines allocate
// nothing. Get returns a grid with undefined contents (callers that
// accumulate must Zero it); Put hands a grid back for reuse. A grid
// obtained from Get is exclusively owned until Put, so a Pool may be shared
// by concurrent pipelines.
type Pool struct {
	mu   sync.Mutex
	free map[[3]int][]*G
	// o, when non-nil, counts Gets and allocation misses — the pool-health
	// counters of the observability layer (a steady-state pipeline should
	// show zero misses after warmup).
	o *obs.Recorder
}

// NewPool returns an empty grid pool.
func NewPool() *Pool { return &Pool{free: map[[3]int][]*G{}} }

// SetObs attaches a stage recorder (nil detaches).
func (p *Pool) SetObs(r *obs.Recorder) {
	p.mu.Lock()
	p.o = r
	p.mu.Unlock()
}

// Get returns an nx×ny×nz grid with undefined contents.
//
//tme:noalloc
func (p *Pool) Get(n [3]int) *G {
	p.mu.Lock()
	p.o.Add(obs.CounterPoolGets, 1)
	if s := p.free[n]; len(s) > 0 {
		g := s[len(s)-1]
		p.free[n] = s[:len(s)-1]
		p.mu.Unlock()
		return g
	}
	p.o.Add(obs.CounterPoolMisses, 1)
	p.mu.Unlock()
	return New(n[0], n[1], n[2]) //tmevet:ignore noalloc -- grow-once: a miss only until the pool holds a pipeline's working set; solver's TestLongRangeSteadyStateAllocs holds every method at 0
}

// Put returns a grid to the pool. The caller must not use g afterwards.
//
//tme:noalloc
func (p *Pool) Put(g *G) {
	if g == nil {
		return
	}
	p.mu.Lock()
	p.free[g.N] = append(p.free[g.N], g) //tmevet:ignore noalloc -- grow-once: a shape's free list keeps its capacity; solver's TestLongRangeSteadyStateAllocs holds every method at 0
	p.mu.Unlock()
}

// scratch is one worker's reusable buffers. f holds the padded source row
// of an x convolution (the direct convolution adds its running output row,
// the prolongation its coefficient lists); idx holds tap-offset tables (the
// direct convolution also its wrapped row offsets). Both grow once to the
// largest row the process touches and are recycled through scratchPool, so
// steady-state passes allocate nothing. A pass uses each buffer for one
// purpose at a time.
type scratch struct {
	f   []float64
	idx []int
}

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

//tme:noalloc
func (s *scratch) floats(n int) []float64 {
	if cap(s.f) < n {
		s.f = make([]float64, n) //tmevet:ignore noalloc -- grow-once: reused via scratchPool in steady state
	}
	return s.f[:n]
}

//tme:noalloc
func (s *scratch) ints(n int) []int {
	if cap(s.idx) < n {
		s.idx = make([]int, n) //tmevet:ignore noalloc -- grow-once: reused via scratchPool in steady state
	}
	return s.idx[:n]
}

// TapRow is the row kernel of the two-scale operators: for each i in
// [0, len(dst)) it folds dst[i] = Σ_e coef[e]·src[off[e]+i] from +0 in
// ascending e. A caller describes an operator by nothing but its tap list —
// the coefficient and source-row offset of every tap — so slab-decomposed
// pipelines (internal/dist) run their z passes over extended buffers with
// the same arithmetic, hence the same bits, as the full-grid passes here.
// dst must not overlap the source rows.
//
// It computes eight outputs at a time in eight independent accumulators, so
// the adds of one tap overlap instead of queueing on one register (a single
// accumulator is one floating-point add latency per tap). Every output
// still sees exactly the serial sequence — +0, then s += coef[e]·x in
// ascending e, each product rounded before its add — so the result does
// not depend on where a row is cut into tiles or on whether a point falls
// in a tile or in the scalar tail.
//
//tme:noalloc
func TapRow(dst, src, coef []float64, off []int) {
	off = off[:len(coef)]
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for e, c := range coef {
			o := off[e] + i
			r := src[o : o+8 : o+8]
			s0 += c * r[0]
			s1 += c * r[1]
			s2 += c * r[2]
			s3 += c * r[3]
			s4 += c * r[4]
			s5 += c * r[5]
			s6 += c * r[6]
			s7 += c * r[7]
		}
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; i < n; i++ {
		dst[i] = fold(src[i:], coef, off)
	}
}

// fold is the one-output tile of TapRow: Σ_e coef[e]·src[off[e]], folded
// from +0 in ascending e.
//
//tme:noalloc
func fold(src, coef []float64, off []int) float64 {
	var s float64
	for e, c := range coef {
		s += c * src[off[e]]
	}
	return s
}

// ConvRow is the row kernel of every convolution pass. coef is an even
// kernel of 2g+1 taps (coef[e] == coef[2g−e]) and off the source-row
// offsets of its taps; tap e and its mirror 2g−e share one product. For
// each i in [0, len(dst)) it folds
//
//	s = coef[g]·x_g,  then  s += coef[e]·(x_e + x_{2g−e})  for e = 0 … g−1,
//
// with x_e = src[off[e]+i], and stores dst[i] = s (accum false) or
// dst[i] += s (accum true). The tiles and the scalar tail see that same
// sequence, as in TapRow. The caller guarantees the kernel is even
// (convAxis and ConvDirect3DAccum check it); slab-decomposed z passes
// (internal/dist) call it with their own offsets and get the full-grid
// bits. dst must not overlap src.
//
//tme:noalloc
func ConvRow(dst, src, coef []float64, off []int, accum bool) {
	g := len(coef) / 2
	off = off[:2*g+1]
	cg, og := coef[g], off[g]
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		o := og + i
		r := src[o : o+8 : o+8]
		s0, s1, s2, s3 := cg*r[0], cg*r[1], cg*r[2], cg*r[3]
		s4, s5, s6, s7 := cg*r[4], cg*r[5], cg*r[6], cg*r[7]
		for e, c := range coef[:g] {
			a, b := off[e]+i, off[2*g-e]+i
			l, h := src[a:a+8:a+8], src[b:b+8:b+8]
			s0 += float64(c * (l[0] + h[0]))
			s1 += float64(c * (l[1] + h[1]))
			s2 += float64(c * (l[2] + h[2]))
			s3 += float64(c * (l[3] + h[3]))
			s4 += float64(c * (l[4] + h[4]))
			s5 += float64(c * (l[5] + h[5]))
			s6 += float64(c * (l[6] + h[6]))
			s7 += float64(c * (l[7] + h[7]))
		}
		if accum {
			s0, s1, s2, s3, s4, s5, s6, s7 = d[0]+s0, d[1]+s1, d[2]+s2, d[3]+s3, d[4]+s4, d[5]+s5, d[6]+s6, d[7]+s7
		}
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; i < n; i++ {
		s := cg * src[og+i]
		for e, c := range coef[:g] {
			s += float64(c * (src[off[e]+i] + src[off[2*g-e]+i]))
		}
		if accum {
			s += dst[i]
		}
		dst[i] = s
	}
}

// padRow fills pad with row extended periodically by g cells on each side,
// pad[k] = row[wrap(k−g, len(row))], by copies only; g may exceed the row
// length (a 17-tap kernel on an 8-point ring).
//
//tme:noalloc
func padRow(pad, row []float64, g int) {
	n := len(row)
	copy(pad[g:], row)
	for k := g - 1; k >= 0; k-- {
		pad[k] = pad[k+n]
	}
	for k := g + n; k < len(pad); k++ {
		pad[k] = pad[k-n]
	}
}

// xOffsets returns the tap offsets of a convolution along a padded row:
// output i, tap e reads pad[i+2g−e], the source cell wrap(i+g−e).
//
//tme:noalloc
func (s *scratch) xOffsets(g int) []int {
	off := s.ints(2*g + 1)
	for e := range off {
		off[e] = 2*g - e
	}
	return off
}

// The operators of an axis pass.
const (
	opConv = iota
	opRestrict
	opProlong
)

// taps is a 1D periodic operator in gather form: output index k along the
// axis is Σ_e coef[e]·src[off[e]] over its tap list, folded from +0 in list
// order. The lists reproduce the order in which the straightforward serial
// loops add the same products — ascending kernel index for convolution and
// restriction; for prolongation, whose natural form is a scatter, ascending
// source index and within one source ascending J index — which is what
// keeps every grid value bit-identical to those loops. off is premultiplied
// by the source stride of the axis.
type taps struct {
	coef []float64
	off  []int
	// Window form (start == nil): every output shares coef and reads the
	// len(coef)-wide window of off beginning at base+step·k. List form:
	// output k owns entries [start[k], start[k+1]) of coef and off.
	base, step int
	start      []int
}

//tme:noalloc
func (t *taps) at(k int) ([]float64, []int) {
	if t.start == nil {
		w := t.off[t.base+t.step*k:]
		return t.coef, w[:len(t.coef)]
	}
	lo, hi := t.start[k], t.start[k+1]
	return t.coef[lo:hi], t.off[lo:hi]
}

// build fills t, in s's buffers, for operator op with coefficients c (a
// kernel or the two-scale J, indexed c[m+half]) on a source ring of n cells
// spaced stride apart.
//
//tme:noalloc
func (t *taps) build(s *scratch, op int, c []float64, n, stride int) {
	half := len(c) / 2
	switch op {
	case opConv:
		// dst[k] = Σ_e c[e]·src[wrap(k+half−e)]: the window at n−1−k of
		// the descending ring table.
		t.coef, t.base, t.step = c, n-1, -1
		t.off = s.ints(n + 2*half)
		for j := range t.off {
			t.off[j] = stride * wrap(half+n-1-j, n)
		}
	case opRestrict:
		// dst[k] = Σ_e c[e]·src[wrap(2k+e−half)]: the window at 2k of the
		// ascending ring table.
		t.coef, t.base, t.step = c, 0, 2
		t.off = s.ints(n + 2*half)
		for j := range t.off {
			t.off[j] = stride * wrap(j-half, n)
		}
	case opProlong:
		// dst[wrap(2i+m)] += c[m+half]·src[i], i ascending then m
		// ascending, is the scatter; bucket its (i, m) pairs by destination
		// in that order (a counting sort) to get each output's list.
		fn, nj := 2*n, len(c)
		buf := s.ints(n*nj + fn + 2)
		t.off, t.start = buf[:n*nj], buf[n*nj:]
		t.coef = s.floats(n * nj)
		for k := range t.start {
			t.start[k] = 0
		}
		for i := 0; i < n; i++ {
			for m := 0; m < nj; m++ {
				t.start[wrap(2*i+m-half, fn)+2]++
			}
		}
		for k := 2; k < len(t.start); k++ {
			t.start[k] += t.start[k-1]
		}
		// start[k+1] is now the fill cursor of list k; once every pair is
		// placed it has advanced to the head of list k+1.
		for i := 0; i < n; i++ {
			for m := 0; m < nj; m++ {
				k := wrap(2*i+m-half, fn)
				e := t.start[k+1]
				t.start[k+1]++
				t.coef[e], t.off[e] = c[m], stride*i
			}
		}
		t.start = t.start[:fn+1]
	}
}

// minChunkTaps is the least work, in point-taps, worth a goroutine: below
// it a pass over a small grid runs on fewer workers, or inline.
const minChunkTaps = 8192

// rowGrain returns the number of rows per parallel chunk for rows of the
// given cost.
func rowGrain(tapsPerRow int) int {
	if g := minChunkTaps / (tapsPerRow + 1); g > 1 {
		return g
	}
	return 1
}

// axisPass applies operator op with coefficients c along one axis of src
// into dst, split over dst's x-rows. Rows are independent and every output
// folds its own taps in a fixed order, so any split gives the same bits.
//
//tme:noalloc
func axisPass(dst, src *G, axis, op int, c []float64, accum bool) {
	rows := dst.N[1] * dst.N[2]
	perRow := dst.N[0] * len(c)
	if op == opProlong {
		perRow /= 2 // a fine point has every other J as a tap
	}
	par.ForRangeGrain(rows, rowGrain(perRow), axisJob{dst, src, axis, op, c, accum}, axisJob.rows)
}

// axisJob is the argument of axisPass's parallel body.
type axisJob struct {
	dst, src *G
	axis, op int
	c        []float64
	accum    bool
}

// rows is the per-worker body of axisPass over dst rows [lo, hi).
//
//tme:noalloc
func (a axisJob) rows(lo, hi int) {
	dst, src, c, accum := a.dst, a.src, a.c, a.accum
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	nx, ny := dst.N[0], dst.N[1]
	if a.axis == 0 && a.op == opConv {
		// Neighbouring outputs read neighbouring cells: one tap row per
		// grid row, over the row padded with its periodic ghost cells.
		g := len(c) / 2
		pad, off := s.floats(nx+2*g), s.xOffsets(g)
		for r := lo; r < hi; r++ {
			padRow(pad, src.Data[r*nx:(r+1)*nx], g)
			ConvRow(dst.Data[r*nx:(r+1)*nx], pad, c, off, accum)
		}
		return
	}
	var t taps
	switch a.axis {
	case 0:
		// Two-scale x pass: neighbouring outputs read cells two apart
		// (restriction) or alternate between tap lists (prolongation), so
		// each output folds its own list.
		snx := src.N[0]
		t.build(s, a.op, c, snx, 1)
		for r := lo; r < hi; r++ {
			srow := src.Data[r*snx : (r+1)*snx]
			drow := dst.Data[r*nx : (r+1)*nx]
			for k := range drow {
				coef, off := t.at(k)
				drow[k] = fold(srow, coef, off)
			}
		}
	case 1:
		// Output row (y, z) is a tap sum of whole source rows of plane z.
		sny := src.N[1]
		t.build(s, a.op, c, sny, nx)
		for r := lo; r < hi; r++ {
			coef, off := t.at(r % ny)
			a.row(dst.Data[r*nx:(r+1)*nx], src.Data[nx*sny*(r/ny):], coef, off)
		}
	case 2:
		// Output plane z is a tap sum of whole source planes; the rows of
		// [lo, hi) inside one plane are contiguous and run as one long row.
		t.build(s, a.op, c, src.N[2], nx*ny)
		for r := lo; r < hi; {
			z := r / ny
			end := (z + 1) * ny
			if end > hi {
				end = hi
			}
			coef, off := t.at(z)
			a.row(dst.Data[r*nx:end*nx], src.Data[(r-z*ny)*nx:], coef, off)
			r = end
		}
	default:
		panic("grid: invalid axis")
	}
}

// row runs the pass's row kernel over one output row: ConvRow for a
// convolution, TapRow for the two-scale operators (which never accumulate).
//
//tme:noalloc
func (a axisJob) row(dst, src, coef []float64, off []int) {
	if a.op == opConv {
		ConvRow(dst, src, coef, off, a.accum)
		return
	}
	TapRow(dst, src, coef, off)
}

// ConvAxis computes the periodic, range-limited 1D convolution of src with
// kernel along the given axis (0 = x, 1 = y, 2 = z) and stores the result in
// dst: dst[n] = Σ_{|m| ≤ gc} kernel[m+gc]·src[n−m]. kernel must have odd
// length 2·gc+1 and be exactly even, kernel[gc−m] == kernel[gc+m] (a Gaussian
// grid kernel from bspline.GridKernel is); ConvAxis panics otherwise. dst
// must not alias src and must have the same shape.
func ConvAxis(dst, src *G, axis int, kernel []float64) {
	convAxis(dst, src, axis, kernel, false)
}

//tme:noalloc
func convAxis(dst, src *G, axis int, kernel []float64, accum bool) {
	if dst.N != src.N {
		panic("grid: ConvAxis shape mismatch")
	}
	if len(kernel)%2 == 0 {
		panic("grid: ConvAxis kernel length must be odd")
	}
	for e, c := range kernel[:len(kernel)/2] {
		if c != kernel[len(kernel)-1-e] {
			panic("grid: ConvAxis kernel must be even")
		}
	}
	axisPass(dst, src, axis, opConv, kernel, accum)
}

// ConvSeparable computes the separable 3D convolution kz∗(ky∗(kx∗src)) and
// returns a new grid. This is the tensor-structured convolution at the heart
// of the TME method (paper Eq. (10)). Each kernel must be even, as for
// ConvAxis. Steady-state callers should prefer
// ConvSeparableInto/ConvSeparableAccum, which allocate nothing.
func ConvSeparable(src *G, kx, ky, kz []float64) *G {
	dst := New(src.N[0], src.N[1], src.N[2])
	tmp := New(src.N[0], src.N[1], src.N[2])
	ConvSeparableInto(dst, src, kx, ky, kz, tmp)
	return dst
}

// ConvSeparableInto computes the separable convolution into dst using tmp
// as scratch. dst, src and tmp must have equal shapes and must not alias
// each other.
//
//tme:noalloc
func ConvSeparableInto(dst, src *G, kx, ky, kz []float64, tmp *G) {
	convAxis(dst, src, 0, kx, false)
	convAxis(tmp, dst, 1, ky, false)
	convAxis(dst, tmp, 2, kz, false)
}

// ConvSeparableAccum accumulates the separable convolution into dst
// (dst += kz∗ky∗kx∗src) using the scratch pair t1, t2. All four grids must
// have equal shapes; dst, t1 and t2 must be pairwise distinct and distinct
// from src. This is the fused form core.Solver uses to sum the M Gaussian
// terms of a TME level into one output grid with zero allocations.
//
//tme:noalloc
func ConvSeparableAccum(dst, src *G, kx, ky, kz []float64, t1, t2 *G) {
	convAxis(t1, src, 0, kx, false)
	convAxis(t2, t1, 1, ky, false)
	convAxis(dst, t2, 2, kz, true)
}

// ConvDirect3D computes the periodic, range-limited direct 3D convolution
// dst[n] = Σ_{|m_j| ≤ gc} kernel(m)·src[n−m], where kernel is indexed
// kernel[(mx+gc) + (2gc+1)·((my+gc) + (2gc+1)·(mz+gc))]. This is the
// B-spline MSM convolution that the TME replaces: (2gc+1)³ taps per grid
// point versus the TME's 3·(2gc+1)·M. The kernel must be exactly even along
// every axis, kernel(mx, my, mz) == kernel(−mx, my, mz) == kernel(mx, −my, mz)
// == kernel(mx, my, −mz), and ConvDirect3D panics otherwise; the evenness
// folds the sum to (gc+1)² mirrored x rows, about (gc+1)³ multiplies per
// point (see ConvDirect3DAccum).
func ConvDirect3D(src *G, kernel []float64, gc int) *G {
	dst := New(src.N[0], src.N[1], src.N[2])
	ConvDirect3DAccum(dst, src, kernel, gc)
	return dst
}

// ConvDirect3DAccum accumulates the periodic, range-limited direct 3D
// convolution into dst: dst[n] += Σ_{|m_j| ≤ gc} kernel(m)·src[n−m], for a
// kernel even along every axis as in ConvDirect3D (it panics on any other).
// dst and src must have equal shapes and must not alias. This is the
// allocation-free form msm.Solver uses.
//
//tme:noalloc
func ConvDirect3DAccum(dst, src *G, kernel []float64, gc int) {
	k := 2*gc + 1
	if len(kernel) != k*k*k {
		panic("grid: ConvDirect3DAccum kernel size mismatch")
	}
	nx, ny, nz := src.N[0], src.N[1], src.N[2]
	if dst.N != src.N {
		panic("grid: ConvDirect3DAccum shape mismatch")
	}
	for i, z := 0, 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x, i = x+1, i+1 {
				c := kernel[i]
				if c != kernel[i+k-1-2*x] || c != kernel[i+k*(k-1-2*y)] || c != kernel[i+k*k*(k-1-2*z)] {
					panic("grid: ConvDirect3DAccum kernel must be even along every axis")
				}
			}
		}
	}
	// Each output x-row (iy, iz) is independent: gather-only, so any
	// partition over rows is bitwise deterministic. A row costs (gc+1)²
	// mirrored rows of gc+1 products and up to three row adds per point.
	par.ForRangeGrain(ny*nz, rowGrain(nx*(gc+1)*(gc+1)*(gc+4)), directJob{dst, src, kernel, gc}, directJob.rows)
}

// directJob is the argument of ConvDirect3DAccum's parallel body.
type directJob struct {
	dst, src *G
	kernel   []float64
	gc       int
}

// rows accumulates the direct convolution for the output x-rows [lo, hi),
// folded by the kernel's mirror symmetry. For output row (iy, iz), in
// ascending ez and within it ascending ey (0 … gc each), it sums the source
// rows
//
//	S = src(iy−ey, iz−ez) [+ src(iy+ey, iz−ez)] [+ src(iy−ey, iz+ez) + src(iy+ey, iz+ez)],
//
// left to right, the bracketed rows taken only when ey > 0 (ez > 0), so that
// every signed offset counts once even where offsets alias on a short ring;
// it pads S as the separable x pass does and adds ConvRow of S with the
// kernel row k(·, ey, ez) into a running row that starts at +0. The running
// row is then added to dst.
//
//tme:noalloc
func (a directJob) rows(lo, hi int) {
	dst, src, kernel, gc := a.dst, a.src, a.kernel, a.gc
	k := 2*gc + 1
	nx, ny, nz := src.N[0], src.N[1], src.N[2]
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	buf := s.floats(2*nx + 2*gc)
	acc, pad := buf[:nx], buf[nx:]
	sum := pad[gc : gc+nx]
	// off holds the x taps of the padded row; wy and wz the flat offsets of
	// source row y = wrap(j−gc) and plane z = wrap(j−gc) at index j, so no
	// mirrored row pays a modulo.
	tab := s.ints(2*gc + 1 + ny + nz + 4*gc)
	off, wy, wz := tab[:2*gc+1], tab[2*gc+1:4*gc+1+ny], tab[4*gc+1+ny:]
	for e := range off {
		off[e] = 2*gc - e
	}
	for j := range wy {
		wy[j] = nx * wrap(j-gc, ny)
	}
	for j := range wz {
		wz[j] = nx * ny * wrap(j-gc, nz)
	}
	d := src.Data
	for r := lo; r < hi; r++ {
		iy, iz := r%ny+gc, r/ny+gc
		clear(acc)
		for ez := 0; ez <= gc; ez++ {
			z0, z1 := wz[iz-ez], wz[iz+ez]
			for ey := 0; ey <= gc; ey++ {
				y0, y1 := wy[iy-ey], wy[iy+ey]
				r0, r3 := d[y0+z0:y0+z0+nx], d[y1+z1:y1+z1+nx]
				switch {
				case ey > 0 && ez > 0:
					r1, r2 := d[y1+z0:y1+z0+nx], d[y0+z1:y0+z1+nx]
					for i := range sum {
						sum[i] = r0[i] + r1[i] + r2[i] + r3[i]
					}
				case ey > 0 || ez > 0: // y1 == y0 or z1 == z0: r3 is the one mirror row
					for i := range sum {
						sum[i] = r0[i] + r3[i]
					}
				default:
					copy(sum, r0)
				}
				padRow(pad, sum, gc)
				krow := k * ((ey + gc) + k*(ez+gc))
				ConvRow(acc, pad, kernel[krow:krow+k], off, true)
			}
		}
		out := dst.Data[r*nx : (r+1)*nx]
		for ix, v := range acc {
			out[ix] += v
		}
	}
}

// RestrictInto computes the three-axis restriction into dst (shape src.N/2),
// drawing the two intermediate grids from pool.
func RestrictInto(dst, src *G, J []float64, pool *Pool) {
	n := src.N
	t1 := pool.Get([3]int{n[0] / 2, n[1], n[2]})
	RestrictAxisInto(t1, src, 0, J)
	t2 := pool.Get([3]int{n[0] / 2, n[1] / 2, n[2]})
	RestrictAxisInto(t2, t1, 1, J)
	pool.Put(t1)
	RestrictAxisInto(dst, t2, 2, J)
	pool.Put(t2)
}

// RestrictAxisInto applies the two-scale restriction along a single axis:
// dst[n] = Σ_m J[m]·src[2n+m] on that axis (dst shape = src shape with the
// axis halved). Slab-decomposed pipelines (internal/dist) run the x/y
// passes through it on their owned z-planes; every output folds its own
// taps, so plane-subset results are bitwise equal to the corresponding
// planes of a full-grid restriction.
//
//tme:noalloc
func RestrictAxisInto(dst, src *G, axis int, J []float64) {
	n := src.N[axis]
	if n%2 != 0 {
		panic("grid: Restrict needs even dimensions")
	}
	want := src.N
	want[axis] = n / 2
	if dst.N != want {
		panic("grid: Restrict destination shape mismatch")
	}
	axisPass(dst, src, axis, opRestrict, J, false)
}

// ProlongInto computes the three-axis prolongation into dst (shape 2·src.N),
// drawing the two intermediate grids from pool.
func ProlongInto(dst, src *G, J []float64, pool *Pool) {
	n := src.N
	t1 := pool.Get([3]int{n[0] * 2, n[1], n[2]})
	ProlongAxisInto(t1, src, 0, J)
	t2 := pool.Get([3]int{n[0] * 2, n[1] * 2, n[2]})
	ProlongAxisInto(t2, t1, 1, J)
	pool.Put(t1)
	ProlongAxisInto(dst, t2, 2, J)
	pool.Put(t2)
}

// ProlongAxisInto applies the two-scale prolongation along a single axis:
// dst[k] = Σ_n J[k−2n]·src[n] on that axis (dst shape = src shape with the
// axis doubled), overwriting dst. Used for the same slab-decomposed x/y
// passes as RestrictAxisInto.
//
//tme:noalloc
func ProlongAxisInto(dst, src *G, axis int, J []float64) {
	want := src.N
	want[axis] *= 2
	if dst.N != want {
		panic("grid: Prolong destination shape mismatch")
	}
	axisPass(dst, src, axis, opProlong, J, false)
}
