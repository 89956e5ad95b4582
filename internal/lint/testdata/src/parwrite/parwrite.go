// Package parwrite exercises the parwrite check: closures handed to par
// loops must not assign captured variables except through element indices.
package parwrite

import "tme4a/internal/lint/testdata/src/par"

type accum struct {
	part []float64
}

func raceyReduction(xs []float64) float64 {
	var sum float64
	par.ForRange(len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want "closure passed to par.ForRange writes captured variable \"sum\""
		}
	})
	return sum
}

func raceyCounter(n int) int {
	count := 0
	par.For(n, 0, func(_, i int) {
		count++ // want "closure passed to par.For writes captured variable \"count\""
	})
	return count
}

func partitionedWrites(a *accum, xs []float64) {
	par.ForRange(len(xs), func(lo, hi int) {
		local := 0.0 // locals are fine
		for i := lo; i < hi; i++ {
			local += xs[i]
			a.part[i] = xs[i] // element write through an index: no finding
		}
		_ = local
	})
}

func raceyPointer(out *float64, n int) {
	par.ForRangeGrain(n, 1, 0, func(_, lo, hi int) {
		*out = float64(hi) // want "closure passed to par.ForRangeGrain writes captured variable \"out\""
	})
}

func suppressedWrite(n int) int {
	last := 0
	par.For(n, 0, func(_, i int) {
		last = i //tmevet:ignore parwrite -- demo: any worker's value is acceptable here
	})
	return last
}
