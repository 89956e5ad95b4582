// Package par is a stub of tme4a/internal/par for the lint golden
// fixtures: the call graph matches the par package by import-path suffix,
// so fixtures can exercise its par edge and the noalloc check's dispatch
// leaf without importing the real worker pool.
package par

// For mirrors par.For.
func For[T any](n int, t T, body func(T, int)) {
	for i := 0; i < n; i++ {
		body(t, i)
	}
}

// ForRangeGrain mirrors par.ForRangeGrain.
func ForRangeGrain[T any](n, grain int, t T, body func(T, int, int)) { body(t, 0, n) }

// ForRange mirrors par.ForRange.
func ForRange(n int, body func(lo, hi int)) { body(0, n) }
