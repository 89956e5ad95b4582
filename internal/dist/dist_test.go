package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tme4a/internal/core"
	"tme4a/internal/ewald"
	"tme4a/internal/grid"
	"tme4a/internal/pmesh"
	"tme4a/internal/vec"
)

// testSystem returns a reproducible cloud of charged particles, including
// positions outside the primary box (the mesher wraps them) and a few
// neutral atoms (skipped by assignment, interpolation and the energy
// fold).
func testSystem(seed int64, n int, box vec.Box) ([]vec.V, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V, n)
	q := make([]float64, n)
	for i := range pos {
		for k := 0; k < 3; k++ {
			pos[i][k] = (rng.Float64()*3 - 1) * box.L[k]
		}
		q[i] = rng.NormFloat64()
		if i%17 == 0 {
			q[i] = 0
		}
	}
	return pos, q
}

var testGeoms = []core.Params{
	{Alpha: 3.0, Rc: 0.45, Order: 4, N: [3]int{32, 32, 32}, Levels: 1, M: 2, Gc: 4},
	{Alpha: 2.5, Rc: 0.5, Order: 4, N: [3]int{32, 16, 32}, Levels: 2, M: 1, Gc: 3},
}

// barrier is a reusable rendezvous of n goroutines.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n, seen int
	gen     int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	if b.seen++; b.seen == b.n {
		b.seen = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
}

// lockstep is the test transport: the ranks of one solve run as goroutines
// that publish their fields in shared slots and meet at a barrier, so each
// receiver can pack its sleeves straight out of the sender's planes.
type lockstep struct {
	plan         *Plan
	bar          *barrier
	src          []*grid.G // src[a]: the field rank a published for the exchange in flight
	topQ, topPhi *grid.G
}

func newLockstep(p *Plan) *lockstep {
	tn := p.TopN()
	return &lockstep{
		plan: p, bar: newBarrier(p.D.R), src: make([]*grid.G, p.D.R),
		topQ: grid.New(tn[0], tn[1], tn[2]), topPhi: grid.New(tn[0], tn[1], tn[2]),
	}
}

// lockstepRank is one rank's end of a lockstep transport.
type lockstepRank struct {
	*lockstep
	rank int
	buf  []float64 // sleeve scratch
}

func (x *lockstepRank) Halo(h *Halo, src, ext *grid.G) {
	x.src[x.rank] = src
	x.bar.wait() // every rank's field is published
	for s := 0; s < h.R; s++ {
		if s == x.rank || h.PackSize(s, x.rank) == 0 {
			continue
		}
		if len(x.buf) < h.PackSize(s, x.rank) {
			x.buf = make([]float64, h.PackSize(s, x.rank))
		}
		n := h.Pack(s, x.rank, x.src[s].Data, x.buf)
		h.Unpack(x.rank, s, x.buf[:n], ext.Data)
	}
	h.FillOwn(x.rank, src.Data, ext.Data)
	x.bar.wait() // every rank has read what it needs; fields may change again
}

func (x *lockstepRank) TopSolve(q, phi *grid.G) {
	blk := len(q.Data)
	copy(x.topQ.Data[x.rank*blk:], q.Data)
	x.bar.wait()
	if x.rank == 0 {
		x.plan.TME.TopSolver().PotentialGridInto(x.topPhi, x.topQ)
	}
	x.bar.wait()
	copy(phi.Data, x.topPhi.Data[x.rank*blk:(x.rank+1)*blk])
}

// TestLongRangeBitwise asserts the decomposed pipeline reproduces
// core.Solver.LongRange exactly — energy and every force component
// bit-for-bit — at every rank count that divides the hierarchy, on two
// geometries (single- and two-level, anisotropic grid): R instances of
// Mesh.Solve, the per-rank entry point internal/rank calls, run
// concurrently over the lock-step transport. Each set of meshes solves
// twice to cover the steady-state (reused scratch) path.
func TestLongRangeBitwise(t *testing.T) {
	for gi, prm := range testGeoms {
		box := vec.Cubic(1.86)
		ref := core.New(prm, box)
		pos, q := testSystem(int64(1000+gi), 321, box)
		fRef := make([]vec.V, len(pos))
		eRef := ref.LongRange(pos, q, fRef)
		for _, r := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("geom%d/R%d", gi, r), func(t *testing.T) {
				p, err := NewPlan(core.New(prm, box), r)
				if err != nil {
					t.Fatalf("NewPlan(R=%d): %v", r, err)
				}
				// Atom windows: a rank assigns every atom whose spline support
				// touches its finest planes and interpolates every atom whose
				// base plane it owns, in ascending index.
				assign := make([][]int32, r)
				interp := make([][]int32, r)
				for i := range pos {
					b := p.Mesher.BasePlane(pos[i]) / p.D.Onz(0)
					interp[b] = append(interp[b], int32(i))
					for a := 0; a < r; a++ {
						if zlo, zhi := p.D.ZRange(0, a); p.Mesher.SupportHits(pos[i], zlo, zhi) {
							assign[a] = append(assign[a], int32(i))
						}
					}
				}
				meshes := make([]*Mesh, r)
				for a := range meshes {
					meshes[a] = p.NewMesh(a)
				}
				x := newLockstep(p)
				for pass := 0; pass < 2; pass++ {
					f := make([]vec.V, len(pos))
					eterm := make([]float64, len(pos))
					var wg sync.WaitGroup
					for a := 0; a < r; a++ {
						wg.Add(1)
						go func(a int) {
							defer wg.Done()
							meshes[a].Solve(&lockstepRank{lockstep: x, rank: a}, nil, assign[a], interp[a], pos, q, eterm, f)
						}(a)
					}
					wg.Wait()
					e := pmesh.FoldEnergy(eterm, q) + ewald.SelfEnergy(q, prm.Alpha)
					if math.Float64bits(e) != math.Float64bits(eRef) {
						t.Fatalf("pass %d: energy %x != serial %x (Δ=%g)",
							pass, math.Float64bits(e), math.Float64bits(eRef), e-eRef)
					}
					for i := range f {
						for k := 0; k < 3; k++ {
							if math.Float64bits(f[i][k]) != math.Float64bits(fRef[i][k]) {
								t.Fatalf("pass %d: force[%d][%d] %g != serial %g", pass, i, k, f[i][k], fRef[i][k])
							}
						}
					}
				}
			})
		}
	}
}

// TestNewRejectsIndivisible: rank counts that do not divide every level's
// plane count must fail at plan time, not mid-solve.
func TestNewRejectsIndivisible(t *testing.T) {
	box := vec.Cubic(1.86)
	tme := core.New(testGeoms[0], box) // top grid 16 planes
	for _, r := range []int{3, 5, 32} {
		if _, err := NewPlan(tme, r); err == nil {
			t.Errorf("NewPlan(R=%d): expected divisibility error, got nil", r)
		}
	}
	if _, err := NewPlan(tme, 0); err == nil {
		t.Error("NewPlan(R=0): expected error, got nil")
	}
}

// TestHaloPlaneExchange drives a full pack/deliver/unpack/fill cycle on a
// field whose plane values encode the global plane id, asserting every
// extended-buffer slot of every rank ends up holding exactly the plane the
// window arithmetic demands — the partition property (no slot missed, no
// slot double-filled) on a concrete exchange rather than just the tables.
func TestHaloPlaneExchange(t *testing.T) {
	for _, tc := range []struct{ r, nz, lo, hi, pl int }{
		{1, 8, 3, 3, 5},
		{2, 8, 2, 1, 4},
		{4, 8, 4, 4, 3}, // window longer than own block
		{8, 8, 1, 9, 2}, // window longer than the ring
		{4, 16, 0, 3, 6},
	} {
		h, err := NewHalo(tc.r, tc.nz, tc.lo, tc.hi, tc.pl)
		if err != nil {
			t.Fatalf("NewHalo(%+v): %v", tc, err)
		}
		if err := CheckPartition(h); err != nil {
			t.Errorf("CheckPartition(%+v): %v", tc, err)
		}
	}
}
