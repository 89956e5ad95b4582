// Package helper is the callee side of the crosspkg fixture: it carries
// no annotation, so only the walk from crosspkg's root checks it.
package helper

// Push appends x to b.
func Push(b []float64, x float64) []float64 {
	return append(b, x)
}
