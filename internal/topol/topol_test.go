package topol

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExclusionsBasic(t *testing.T) {
	e := NewExclusions(5)
	e.Add(1, 3)
	e.Add(3, 1) // duplicate, reversed
	e.Add(0, 4)
	if !e.Excluded(1, 3) || !e.Excluded(3, 1) {
		t.Error("pair (1,3) should be excluded symmetrically")
	}
	if e.Excluded(1, 2) {
		t.Error("pair (1,2) should not be excluded")
	}
	if len(e.Pairs()) != 2 {
		t.Errorf("expected 2 unique pairs, got %d", len(e.Pairs()))
	}
	e.Add(2, 2) // self: ignored
	if len(e.Pairs()) != 2 {
		t.Error("self-pair should be ignored")
	}
}

func TestAddGroupExcludesAllPairs(t *testing.T) {
	e := NewExclusions(6)
	e.AddGroup([]int{1, 2, 4})
	want := [][2]int{{1, 2}, {1, 4}, {2, 4}}
	for _, p := range want {
		if !e.Excluded(p[0], p[1]) {
			t.Errorf("pair %v not excluded", p)
		}
	}
	if len(e.Pairs()) != 3 {
		t.Errorf("expected 3 pairs, got %d", len(e.Pairs()))
	}
}

// TestExclusionsSymmetryProperty: Excluded(i,j) == Excluded(j,i) for random
// addition sequences, and Pairs() always has I < J with no duplicates.
func TestExclusionsSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		e := NewExclusions(n)
		for k := 0; k < 40; k++ {
			e.Add(rng.Intn(n), rng.Intn(n))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if e.Excluded(i, j) != e.Excluded(j, i) {
					return false
				}
			}
		}
		seen := map[[2]int32]bool{}
		for _, p := range e.Pairs() {
			if p.I >= p.J {
				return false
			}
			key := [2]int32{p.I, p.J}
			if seen[key] {
				return false
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNilExclusions(t *testing.T) {
	var e *Exclusions
	if e.Excluded(0, 1) {
		t.Error("nil exclusions should exclude nothing")
	}
	if e.Pairs() != nil {
		t.Error("nil exclusions should return a nil slice")
	}
}

func TestNeighborsSorted(t *testing.T) {
	e := NewExclusions(10)
	for _, j := range []int{7, 2, 9, 4} {
		e.Add(5, j)
	}
	nb := e.adj[5]
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("neighbours not sorted: %v", nb)
		}
	}
}
