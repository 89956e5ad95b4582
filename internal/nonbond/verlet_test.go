package nonbond

import (
	"math"
	"math/rand"
	"testing"

	"tme4a/internal/topol"
	"tme4a/internal/vec"
)

func TestVerletMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(4)
	pos, q, lj := randomSystem(rng, 150, box)
	excl := topol.NewExclusions(len(pos))
	for g := 0; g+2 < len(pos); g += 3 {
		excl.AddGroup([]int{g, g + 1, g + 2})
	}
	v := NewVerletList(box, 1.1, 0.2)
	v.Rebuild(pos, excl)

	f1 := make([]vec.V, len(pos))
	f2 := make([]vec.V, len(pos))
	r1 := v.Compute(pos, q, lj, 2.5, f1)
	r2 := OracleCompute(box, pos, q, lj, 2.5, 1.1, excl, f2)
	if r1.Pairs != r2.Pairs {
		t.Fatalf("pair counts %d vs %d", r1.Pairs, r2.Pairs)
	}
	if math.Abs(r1.ECoul-r2.ECoul) > 1e-9*math.Abs(r2.ECoul) {
		t.Errorf("ECoul %g vs %g", r1.ECoul, r2.ECoul)
	}
	for i := range f1 {
		if f1[i].Sub(f2[i]).Norm() > 1e-9*math.Max(1, f2[i].Norm()) {
			t.Fatalf("force %d mismatch", i)
		}
	}
}

func TestVerletValidAfterSmallMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box := vec.Cubic(4)
	pos, q, lj := randomSystem(rng, 200, box)
	excl := topol.NewExclusions(len(pos))
	v := NewVerletList(box, 1.0, 0.3)
	v.Rebuild(pos, excl)

	// Move every atom by less than skin/2 = 0.15 nm.
	for i := range pos {
		pos[i] = pos[i].Add(vec.V{rng.NormFloat64() * 0.03, rng.NormFloat64() * 0.03, rng.NormFloat64() * 0.03})
	}
	if v.NeedsRebuild(pos) {
		t.Fatal("list should still be valid after sub-skin moves")
	}
	// Buffered list result equals a fresh computation at the new positions.
	f1 := make([]vec.V, len(pos))
	f2 := make([]vec.V, len(pos))
	r1 := v.Compute(pos, q, lj, 2.2, f1)
	r2 := OracleCompute(box, pos, q, lj, 2.2, 1.0, excl, f2)
	if r1.Pairs != r2.Pairs {
		t.Fatalf("pair counts %d vs %d after moves", r1.Pairs, r2.Pairs)
	}
	for i := range f1 {
		if f1[i].Sub(f2[i]).Norm() > 1e-9*math.Max(1, f2[i].Norm()) {
			t.Fatalf("force %d mismatch after moves", i)
		}
	}
}

func TestVerletDetectsLargeMove(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box := vec.Cubic(4)
	pos, _, _ := randomSystem(rng, 50, box)
	v := NewVerletList(box, 1.0, 0.2)
	v.Rebuild(pos, topol.NewExclusions(len(pos)))
	pos[7] = pos[7].Add(vec.V{0.2, 0, 0}) // > skin/2
	if !v.NeedsRebuild(pos) {
		t.Error("large displacement not detected")
	}
}

func TestVerletBufferContainsCutoffPairs(t *testing.T) {
	// The buffered list must contain strictly more candidates than the
	// in-range pairs (skin > 0).
	rng := rand.New(rand.NewSource(4))
	box := vec.Cubic(4)
	pos, q, lj := randomSystem(rng, 200, box)
	excl := topol.NewExclusions(len(pos))
	v := NewVerletList(box, 1.0, 0.3)
	v.Rebuild(pos, excl)
	res := v.Compute(pos, q, lj, 2.2, nil)
	if v.NPairs() <= res.Pairs {
		t.Errorf("buffered pairs %d should exceed in-range pairs %d", v.NPairs(), res.Pairs)
	}
}

func BenchmarkVerletCompute(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	box := vec.Cubic(5)
	pos, q, lj := randomSystem(rng, 1500, box)
	excl := topol.NewExclusions(len(pos))
	v := NewVerletList(box, 1.0, 0.2)
	v.Rebuild(pos, excl)
	f := make([]vec.V, len(pos))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Compute(pos, q, lj, 2.3, f)
	}
}
