// Package noallocipa exercises the call-graph half of the noalloc check: a
// //tme:noalloc function must not reach, through the static call graph, an
// unannotated callee that allocates. The named body of a par loop counts
// as a callee of the loop's caller. Callees carrying their own annotation
// are checked directly, the par stub is the trusted dispatch leaf, and a
// callee whose allocation site is suppressed with a rationale (grow-once)
// does not count.
package noallocipa

import "tme4a/internal/lint/testdata/src/par"

type engine struct {
	buf []float64
	out []float64
}

// step is the annotated hot path; its own body is clean, so only the
// call graph betrays the allocations below. Diagnostics anchor on the
// first-hop call so step's author sees them.
//
//tme:noalloc
func (e *engine) step(n int) {
	e.helperAlloc(n) // want "//tme:noalloc function engine.step calls engine.helperAlloc, which allocates \(make\); annotate the callee //tme:noalloc or hoist the allocation"
	e.helperClean(n)
	e.helperDeep(1.5) // want "calls deeper via engine.helperDeep, which allocates \(append\)"
	e.helperAnnotated(n)
	e.helperSuppressed(n)
	e.helperPar(n)
	par.ForRangeGrain(n, 1, rows{e.out}, rows.grow) // want "calls rows.grow, which allocates \(append\)"
}

// helperAlloc allocates directly: one hop from the annotated root.
func (e *engine) helperAlloc(n int) {
	e.buf = make([]float64, n)
}

// helperClean touches preallocated state only.
func (e *engine) helperClean(n int) {
	for i := 0; i < n && i < len(e.buf); i++ {
		e.buf[i] = 0
	}
}

// helperDeep is clean itself but reaches an allocating helper; the
// diagnostic names the path.
func (e *engine) helperDeep(x float64) {
	e.out = deeper(e.out, x)
}

func deeper(b []float64, x float64) []float64 {
	return append(b, x)
}

// helperAnnotated carries its own //tme:noalloc, so it is checked as a
// root of its own and the walk from step skips it.
//
//tme:noalloc
func (e *engine) helperAnnotated(n int) {
	if n >= 0 && n < len(e.buf) {
		e.buf[n] = 1
	}
}

// helperSuppressed's allocation is a reviewed grow-once site.
func (e *engine) helperSuppressed(n int) {
	if cap(e.buf) < n {
		e.buf = make([]float64, n) //tmevet:ignore noalloc -- grow-once: runs on resize only, never at steady state
	}
}

// helperPar dispatches through the par leaf with a job value and a named
// body; the walk enters the clean body.
func (e *engine) helperPar(n int) {
	par.For(n, e.buf, zero)
}

func zero(buf []float64, i int) { buf[i] = 0 }

// rows is a job value whose method-expression body allocates; only the par
// edge leads the walk into it.
type rows struct{ out []float64 }

func (r rows) grow(lo, hi int) {
	r.out = append(r.out, float64(hi-lo))
}
