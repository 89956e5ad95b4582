// Package crosspkg exercises the call-graph half of the noalloc check
// across a package boundary: a //tme:noalloc root calls an unannotated
// helper in another module package, and the helper's append is reported
// at the root's call. The walk sees the helper only if the loader
// type-checks it as the same *types.Package the root imports, which is
// what its own importer is for.
package crosspkg

import "tme4a/internal/lint/testdata/src/noalloc/crosspkg/helper"

type engine struct {
	buf []float64
}

// step is the annotated hot path; its own body is clean.
//
//tme:noalloc
func (e *engine) step(x float64) {
	e.buf = helper.Push(e.buf, x) // want "//tme:noalloc function engine.step calls helper.Push, which allocates \(append\)"
}
