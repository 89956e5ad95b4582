// Package par provides small data-parallel helpers (worker-pool loops and
// reductions) used by the hot loops of the force and mesh modules.
//
// The helpers degrade gracefully to plain sequential loops when GOMAXPROCS
// is one or the trip count is small, so there is no goroutine overhead on
// single-core hosts.
//
// Determinism: the helpers only decide *which worker* executes a chunk or
// index, never the chunk boundaries themselves. Callers that need results bitwise
// independent of GOMAXPROCS must therefore fix their own reduction
// granularity (see pmesh.Interpolate for the pattern); plain ForRange/
// ForRangeGrain bodies that write disjoint outputs are deterministic as is.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minChunk is the smallest per-worker slice of iterations worth spawning a
// goroutine for when the caller gives no better estimate of per-iteration
// cost.
const minChunk = 64

// For runs body(i) for every i in [0, n) on up to min(GOMAXPROCS, n)
// workers that claim indices one at a time, in ascending order, from a
// shared atomic counter. It is the form for loops whose iterations are
// individually expensive and unequal — the triangular atom blocks and
// z-slabs of the pair engine — where ForRange's equal contiguous ranges
// would leave one worker most of the work; cheap uniform iterations belong
// in ForRange, which touches no shared counter. body must be safe to call
// concurrently for distinct i. Each index runs exactly once and For returns
// after the last one, so a body that writes only state owned by its index
// produces results independent of the worker count and of the claim order.
func For(n int, body func(i int)) {
	workers := WorkersGrain(n, 1)
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	c := &claim{n: n, body: body}
	c.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go c.worker()
	}
	c.run() // the caller's goroutine is the first worker
	c.wg.Wait()
}

// claim is the shared state of one For call.
type claim struct {
	next atomic.Int64
	wg   sync.WaitGroup
	n    int
	body func(i int)
}

// run claims and runs indices until none are left.
func (c *claim) run() {
	for i := int(c.next.Add(1)) - 1; i < c.n; i = int(c.next.Add(1)) - 1 {
		c.body(i)
	}
}

func (c *claim) worker() {
	defer c.wg.Done()
	c.run()
}

// ForRange splits [0, n) into contiguous chunks and runs body(lo, hi) for
// each chunk, using up to GOMAXPROCS workers. It is the preferred form for
// loops that carry per-worker scratch state.
func ForRange(n int, body func(lo, hi int)) {
	ForRangeGrain(n, minChunk, body)
}

// ForRangeGrain is ForRange with a caller-chosen minimum chunk size. Use a
// small grain (down to 1) for loops whose iterations are individually
// expensive — grid lines, z-slabs, atom blocks — where minChunk's
// cheap-iteration assumption would serialize the loop.
func ForRangeGrain(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := WorkersGrain(n, grain)
	if workers == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Concurrent reports whether more than one worker is available at all —
// callers use it to pick a closure-free sequential path when parallelism
// cannot help (keeping hot paths allocation-free on single-proc hosts).
func Concurrent() bool {
	return runtime.GOMAXPROCS(0) > 1
}

// Do runs the tasks concurrently, waiting for all of them; with a single
// worker available they run sequentially in argument order. Tasks must
// write disjoint state. Unlike ForRange this is for heterogeneous work —
// e.g. overlapping the short-range pair loop with the long-range mesh
// solve and the bonded terms of one force evaluation.
func Do(tasks ...func()) {
	if !Concurrent() || len(tasks) <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(tasks) - 1)
	for _, t := range tasks[1:] {
		go func(t func()) {
			defer wg.Done()
			t()
		}(t)
	}
	tasks[0]()
	wg.Wait()
}

// Workers returns the number of workers ForRange would use for n items.
func Workers(n int) int {
	return WorkersGrain(n, minChunk)
}

// WorkersGrain returns the number of workers ForRangeGrain would use for n
// items at the given grain. It is the single source of truth for the
// worker-count formula.
func WorkersGrain(n, grain int) int {
	if grain < 1 {
		grain = 1
	}
	workers := runtime.GOMAXPROCS(0)
	if m := n / grain; workers > m {
		workers = m
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// pad is the number of float64 words per partial-sum slot; 8 words = 64
// bytes keeps each worker's accumulator on its own cache line.
const pad = 8

// SumFloat64 computes body(i) summed over [0, n) with a parallel reduction.
// body must be pure with respect to shared state. Partials are reduced in
// fixed worker order, so the result is deterministic for a given worker
// count; the chunking (and hence the floating-point association) depends on
// GOMAXPROCS.
func SumFloat64(n int, body func(i int) float64) float64 {
	workers := Workers(n)
	if workers == 1 {
		var s float64
		for i := 0; i < n; i++ {
			s += body(i)
		}
		return s
	}
	partial := make([]float64, workers*pad)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var s float64
			for i := lo; i < hi; i++ {
				s += body(i)
			}
			partial[w*pad] = s
		}(w, lo, hi)
	}
	wg.Wait()
	var s float64
	for w := 0; w < workers; w++ {
		s += partial[w*pad]
	}
	return s
}
