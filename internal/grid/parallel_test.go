package grid

// Serial-vs-parallel bitwise equivalence of the grid operators. Every
// operator is parallelized over independent 1D lines with unchanged
// per-line arithmetic, so results must be bitwise identical at any
// GOMAXPROCS.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tme4a/internal/bspline"
	"tme4a/internal/par/partest"
)

func withGOMAXPROCS(p int, fn func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// assertBitwise compares bit patterns, so signed zeros are told apart.
func assertBitwise(t *testing.T, name string, a, b *G) {
	t.Helper()
	if a.N != b.N {
		t.Fatalf("%s: shape mismatch %v vs %v", name, a.N, b.N)
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s: differs at %d: %.17g vs %.17g", name, i, a.Data[i], b.Data[i])
		}
	}
}

// randKernel returns a random even kernel of 2gc+1 taps, the only kind the
// convolutions accept.
func randKernel(rng *rand.Rand, gc int) []float64 {
	k := make([]float64, 2*gc+1)
	for i := 0; i <= gc; i++ {
		k[i] = rng.NormFloat64()
		k[2*gc-i] = k[i]
	}
	return k
}

// randKernel3 returns a random (2gc+1)³ kernel, x fastest, that is even
// along every axis — the only kind the direct convolution accepts: each
// entry copies the octant entry (|mx|, |my|, |mz|).
func randKernel3(rng *rand.Rand, gc int) []float64 {
	k := 2*gc + 1
	at := func(mx, my, mz int) int { return (mx + gc) + k*((my+gc)+k*(mz+gc)) }
	k3 := make([]float64, k*k*k)
	for i := range k3 {
		k3[i] = rng.NormFloat64()
	}
	for mz := -gc; mz <= gc; mz++ {
		for my := -gc; my <= gc; my++ {
			for mx := -gc; mx <= gc; mx++ {
				k3[at(mx, my, mz)] = k3[at(max(mx, -mx), max(my, -my), max(mz, -mz))]
			}
		}
	}
	return k3
}

func TestGridOpsBitwiseAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := randGrid(rng, 16, 12, 8)
	kx := randKernel(rng, 5)
	ky := randKernel(rng, 5)
	kz := randKernel(rng, 5)
	gc := 2
	k3 := randKernel3(rng, gc)
	J := bspline.TwoScale(6)

	type out struct{ sep, dir, res, pro *G }
	run := func() out {
		return out{
			sep: ConvSeparable(src, kx, ky, kz),
			dir: ConvDirect3D(src, k3, gc),
			res: restrict(src, J),
			pro: prolong(src, J),
		}
	}
	var serial, parallel out
	withGOMAXPROCS(1, func() { serial = run() })
	withGOMAXPROCS(4, func() { parallel = run() })
	assertBitwise(t, "ConvSeparable", serial.sep, parallel.sep)
	assertBitwise(t, "ConvDirect3D", serial.dir, parallel.dir)
	assertBitwise(t, "Restrict", serial.res, parallel.res)
	assertBitwise(t, "Prolong", serial.pro, parallel.pro)
}

func TestConvSeparableIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	src := randGrid(rng, 8, 8, 8)
	kx, ky, kz := randKernel(rng, 3), randKernel(rng, 3), randKernel(rng, 3)
	want := ConvSeparable(src, kx, ky, kz)

	dst := New(8, 8, 8)
	tmp := New(8, 8, 8)
	ConvSeparableInto(dst, src, kx, ky, kz, tmp)
	assertBitwise(t, "ConvSeparableInto", want, dst)
}

func TestConvSeparableAccumSumsGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	src := randGrid(rng, 8, 8, 8)
	const m = 3
	var kx, ky, kz [m][]float64
	for v := 0; v < m; v++ {
		kx[v], ky[v], kz[v] = randKernel(rng, 3), randKernel(rng, 3), randKernel(rng, 3)
	}
	// Reference: allocate-and-add, the pre-refactor levelConv structure.
	want := ConvSeparable(src, kx[0], ky[0], kz[0])
	for v := 1; v < m; v++ {
		for i, x := range ConvSeparable(src, kx[v], ky[v], kz[v]).Data {
			want.Data[i] += x
		}
	}

	dst := New(8, 8, 8)
	t1 := New(8, 8, 8)
	t2 := New(8, 8, 8)
	for v := 0; v < m; v++ {
		ConvSeparableAccum(dst, src, kx[v], ky[v], kz[v], t1, t2)
	}
	assertBitwise(t, "ConvSeparableAccum", want, dst)
}

func TestRestrictProlongIntoMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	J := bspline.TwoScale(6)
	pool := NewPool()

	src := randGrid(rng, 16, 8, 12)
	// Reference: one axis at a time onto fresh grids.
	want := src
	for axis := 0; axis < 3; axis++ {
		n := want.N
		n[axis] /= 2
		next := New(n[0], n[1], n[2])
		RestrictAxisInto(next, want, axis, J)
		want = next
	}
	dst := pool.Get([3]int{8, 4, 6})
	RestrictInto(dst, src, J, pool)
	assertBitwise(t, "RestrictInto", want, dst)

	up := randGrid(rng, 8, 4, 6)
	wantP := up
	for axis := 0; axis < 3; axis++ {
		n := wantP.N
		n[axis] *= 2
		next := New(n[0], n[1], n[2])
		ProlongAxisInto(next, wantP, axis, J)
		wantP = next
	}
	// Deliberately dirty destination: ProlongInto must fully overwrite.
	dstP := pool.Get([3]int{16, 8, 12})
	for i := range dstP.Data {
		dstP.Data[i] = 1e9
	}
	ProlongInto(dstP, up, J, pool)
	assertBitwise(t, "ProlongInto", wantP, dstP)
}

func TestPoolReusesGrids(t *testing.T) {
	pool := NewPool()
	a := pool.Get([3]int{4, 4, 4})
	pool.Put(a)
	b := pool.Get([3]int{4, 4, 4})
	if a != b {
		t.Error("pool did not recycle the grid")
	}
	c := pool.Get([3]int{4, 4, 4})
	if c == b {
		t.Error("pool handed out the same grid twice")
	}
	if pool.Get([3]int{2, 2, 2}).N != [3]int{2, 2, 2} {
		t.Error("pool returned wrong shape")
	}
}

// TestConvSeparableSteadyStateAllocFree verifies the zero-allocation claim
// of the fused path at one, two and four workers.
func TestConvSeparableSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(25))
	src := randGrid(rng, 16, 16, 16)
	k := randKernel(rng, 8)
	dst := New(16, 16, 16)
	t1 := New(16, 16, 16)
	t2 := New(16, 16, 16)
	for _, procs := range []int{1, 2, 4} {
		allocs := partest.AllocsPerRun(procs, 50, func() {
			ConvSeparableAccum(dst, src, k, k, k, t1, t2)
		})
		if allocs != 0 {
			t.Errorf("GOMAXPROCS=%d: ConvSeparableAccum allocates %.1f objects per run, want 0", procs, allocs)
		}
	}
}
