// Package noalloc exercises the noalloc check's depth-0 half (the
// call-graph half is the noalloc-ipa sub-package): inside a //tme:noalloc
// function every syntactic allocation source is flagged, closures handed to
// par included, plain value literals are not, and unannotated functions are
// never inspected as roots.
package noalloc

import "tme4a/internal/lint/testdata/src/par"

type vec3 [3]float64

type state struct {
	buf []float64
	sum float64
}

// hot is the annotated steady-state path.
//
//tme:noalloc
func (s *state) hot(n int) {
	b := make([]float64, n)            // want "make in //tme:noalloc function state.hot allocates"
	s.buf = append(s.buf, 1)           // want "append in //tme:noalloc function state.hot may grow its backing array"
	p := new(vec3)                     // want "new in //tme:noalloc function state.hot allocates"
	xs := []float64{1, 2}              // want "\[\]float64 literal in //tme:noalloc function state.hot allocates"
	m := map[int]int{}                 // want "map\[int\]int literal in //tme:noalloc function state.hot allocates"
	q := &vec3{1, 2, 3}                // want "&vec3 literal in //tme:noalloc function state.hot risks a heap allocation"
	v := vec3{1, 2, 3}                 // plain value literal stays on the stack: no finding
	f := func() {}                     // want "closure literal in //tme:noalloc function state.hot may allocate"
	go s.drain()                       // want "go statement in //tme:noalloc function state.hot allocates a goroutine"
	par.ForRange(n, func(lo, hi int) { // want "closure literal in //tme:noalloc function state.hot may allocate; use a named function \(for par, a job value and a named body\)"
		for i := lo; i < hi; i++ {
			s.buf[i] = v[0]
		}
	})
	if cap(s.buf) < n {
		s.buf = make([]float64, n) //tmevet:ignore noalloc -- grow-once demo
	}
	_, _, _, _, _, _ = b, p, xs, m, q, f
}

// cold is unannotated: the same constructs produce no findings.
func (s *state) cold(n int) {
	s.buf = append(make([]float64, 0, n), 1)
	go s.drain()
}

func (s *state) drain() { s.sum = 0 }
