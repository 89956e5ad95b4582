// Package topol holds minimal molecular topology shared by the force
// modules: nonbonded exclusion lists and molecule groupings.
package topol

import "sort"

// Pair is an unordered atom pair stored with I < J.
type Pair struct{ I, J int32 }

// Exclusions records which atom pairs are excluded from nonbonded
// interactions (typically atoms connected by one or two bonds, or all
// intra-molecular pairs of a rigid water).
type Exclusions struct {
	adj   [][]int32 // symmetric, sorted neighbour lists
	pairs []Pair    // unique pairs, I < J
}

// NewExclusions returns an empty exclusion set for n atoms.
func NewExclusions(n int) *Exclusions {
	return &Exclusions{adj: make([][]int32, n)}
}

// Add excludes the pair (i, j). Duplicate additions are ignored.
func (e *Exclusions) Add(i, j int) {
	if i == j {
		return
	}
	if i > j {
		i, j = j, i
	}
	if e.Excluded(i, j) {
		return
	}
	e.adj[i] = insertSorted(e.adj[i], int32(j))
	e.adj[j] = insertSorted(e.adj[j], int32(i))
	e.pairs = append(e.pairs, Pair{int32(i), int32(j)})
}

// AddGroup excludes every pair within the atom index group (e.g. the three
// atoms of one water molecule).
func (e *Exclusions) AddGroup(idx []int) {
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			e.Add(idx[a], idx[b])
		}
	}
}

// Excluded reports whether the pair (i, j) is excluded. The pair loops call
// it once per candidate pair; adjacency lists are a handful of entries (two
// for a water atom), so a scan of the sorted list with an early exit beats
// a binary search and needs no closure.
func (e *Exclusions) Excluded(i, j int) bool {
	if e == nil {
		return false
	}
	for _, n := range e.adj[i] {
		if n >= int32(j) {
			return n == int32(j)
		}
	}
	return false
}

// Pairs returns all excluded pairs with I < J. The caller must not modify
// the returned slice.
func (e *Exclusions) Pairs() []Pair {
	if e == nil {
		return nil
	}
	return e.pairs
}

func insertSorted(l []int32, v int32) []int32 {
	k := sort.Search(len(l), func(k int) bool { return l[k] >= v })
	l = append(l, 0)
	copy(l[k+1:], l[k:])
	l[k] = v
	return l
}
