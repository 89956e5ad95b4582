// Package par provides the data-parallel loops of the force and mesh
// modules.
//
// A hot loop is one call with a job value and a named body: the caller packs
// the loop's arguments into a small struct T and passes a method expression
// (job.body) or function of type func(T, …). With one worker — GOMAXPROCS
// one, or a trip count below the grain — the body runs directly on the
// caller's goroutine and nothing is allocated, so a caller needs no serial
// branch of its own to keep a steady-state path allocation-free. Only the
// multi-worker path allocates: its goroutines and their shared join state.
// The worker count is private to this package, so no caller can branch on
// it.
//
// Determinism: the helpers only decide *which worker* executes a chunk or
// index, never the chunk boundaries themselves. Callers that need results
// bitwise independent of GOMAXPROCS must therefore fix their own reduction
// granularity (see pmesh.Interpolate for the pattern); bodies that write
// disjoint outputs are deterministic as is.
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

// For runs body(t, i) for every i in [0, n) on up to min(GOMAXPROCS, n)
// workers that claim indices one at a time, in ascending order, from a
// shared atomic counter. It is the form for loops whose iterations are
// individually expensive and unequal — the triangular atom blocks and
// z-slabs of the pair engine, the force terms of one evaluation — where
// ForRangeGrain's equal contiguous ranges would leave one worker most of the
// work. body must be safe to call concurrently for distinct i. Each index
// runs exactly once and For returns after the last one, so a body that
// writes only state owned by its index produces results independent of the
// worker count and of the claim order. With one worker the indices run in
// ascending order on the caller's goroutine. A body may itself call For.
func For[T any](n int, t T, body func(T, int)) {
	workers := workersGrain(n, 1)
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(t, i)
		}
		return
	}
	c := &claim[T]{n: n, t: t, body: body}
	c.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go c.worker()
	}
	c.run() // the caller's goroutine is the first worker
	c.wg.Wait()
}

// claim is the shared state of one multi-worker For call.
type claim[T any] struct {
	next atomic.Int64
	wg   sync.WaitGroup
	n    int
	t    T
	body func(T, int)
}

// run claims and runs indices until none are left.
func (c *claim[T]) run() {
	for i := int(c.next.Add(1)) - 1; i < c.n; i = int(c.next.Add(1)) - 1 {
		c.body(c.t, i)
	}
}

func (c *claim[T]) worker() {
	defer c.wg.Done()
	c.run()
}

// ForRangeGrain splits [0, n) into at most GOMAXPROCS contiguous chunks of
// at least grain iterations and runs body(t, lo, hi) for each chunk, one
// goroutine per chunk. Use a small grain (down to 1) for loops whose
// iterations are individually expensive — grid lines, z-slabs, atom chunks;
// per-worker scratch is taken inside the body. With one chunk, body(t, 0, n)
// runs on the caller's goroutine.
func ForRangeGrain[T any](n, grain int, t T, body func(T, int, int)) {
	if n <= 0 {
		return
	}
	workers := workersGrain(n, grain)
	if workers == 1 {
		body(t, 0, n)
		return
	}
	r := &ranges[T]{t: t, body: body}
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		r.wg.Add(1)
		go r.run(lo, min(lo+chunk, n))
	}
	r.wg.Wait()
}

// ranges is the shared state of one multi-worker ForRangeGrain call.
type ranges[T any] struct {
	wg   sync.WaitGroup
	t    T
	body func(T, int, int)
}

func (r *ranges[T]) run(lo, hi int) {
	defer r.wg.Done()
	r.body(r.t, lo, hi)
}

// ForRange is ForRangeGrain with the default grain and a closure body, for
// cold loops where a closure's allocation does not matter.
func ForRange(n int, body func(lo, hi int)) {
	ForRangeGrain(n, minChunk, body, callRange)
}

func callRange(body func(lo, hi int), lo, hi int) { body(lo, hi) }

// workersGrain returns the number of workers For (grain 1) and
// ForRangeGrain use for n items at the given grain: GOMAXPROCS, capped so
// each worker gets at least grain items, and at least one.
func workersGrain(n, grain int) int {
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
