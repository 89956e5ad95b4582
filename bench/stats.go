package main

import (
	"math"
	"math/rand"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest value with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s[idx]
}

// filterSeries is the replay filter: for every step index it keeps the
// median of that step's time across the replays. The trajectory is bitwise
// reproducible, so index i is the same work in every replay; a disturbance
// survives only if it hits the same step in most replays, while work that
// belongs to the step (a neighbour rebuild) survives in all of them.
func filterSeries(replays [][]float64) []float64 {
	if len(replays) == 0 {
		return nil
	}
	out := make([]float64, len(replays[0]))
	col := make([]float64, len(replays))
	for i := range out {
		for r := range replays {
			col[r] = replays[r][i]
		}
		out[i] = median(col)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// jobOrder expands counts[c] copies of every class index c and shuffles
// them with a generator seeded by seed, so a seed fixes the job order.
func jobOrder(counts []int, seed int64) []int {
	var order []int
	for c, n := range counts {
		for i := 0; i < n; i++ {
			order = append(order, c)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	return order
}
