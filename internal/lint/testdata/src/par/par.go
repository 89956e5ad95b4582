// Package par is a stub of tme4a/internal/par for the lint golden
// fixtures: the parwrite and noalloc checks match the par package by
// import-path suffix, so fixtures can exercise them without importing the
// real worker pool.
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
