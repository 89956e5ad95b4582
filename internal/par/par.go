// Package par provides the data-parallel loops of the force and mesh
// modules.
//
// A hot loop is one call with a job value and a named body: the caller packs
// the loop's arguments into a small struct T and passes a method expression
// (job.body) or function of type func(T, …). With one worker — GOMAXPROCS
// one, or a trip count below the grain — the body runs directly on the
// caller's goroutine. With more, the call publishes its chunks as a phase
// to one persistent team of GOMAXPROCS−1 workers shared by every caller,
// from a recycled descriptor: either way a steady-state call allocates
// nothing. The worker count is private to this package, so no caller can
// branch on it.
//
// Determinism: the helpers only decide *which worker* executes a chunk or
// index, never the chunk boundaries themselves. Callers that need results
// bitwise independent of GOMAXPROCS must therefore fix their own reduction
// granularity (see pmesh.FoldEnergy for the pattern); bodies that write
// disjoint outputs are deterministic as is.
//
// Helping joins: a caller whose chunks are all claimed, while some still
// run elsewhere, runs chunks of the oldest other open phase instead of
// blocking. So a body must not take a lock that a caller holds across a
// par call.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minChunk is the smallest per-worker slice of iterations worth a worker
// when the caller gives no better estimate of per-iteration cost.
const minChunk = 64

// spinYields is how many times an idle worker, or a caller waiting on its
// phase, yields while it watches for work before it parks (DESIGN §7.1).
const spinYields = 8192

// For runs body(t, i) for every i in [0, n); when min(GOMAXPROCS, n)
// exceeds one, the caller and the team claim indices one at a time, in
// ascending order, from a shared atomic counter. It is the form for loops
// whose iterations are individually expensive and unequal — the triangular
// atom blocks and z-slabs of the pair engine, the force terms of one
// evaluation. body must be safe to call concurrently for distinct i. Each
// index runs exactly once and For returns after the last one, so a body
// that writes only state owned by its index gives results independent of
// the worker count and claim order. With one worker the indices run in
// ascending order on the caller's goroutine. A body may itself call For. A
// panic in a body is re-raised once every index has finished.
func For[T any](n int, t T, body func(T, int)) {
	workers := workersGrain(n, 1)
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(t, i)
		}
		return
	}
	l := acquire[T](workers)
	l.t, l.each = t, body
	l.run(n, workers)
}

// ForRangeGrain splits [0, n) into at most GOMAXPROCS contiguous chunks of
// at least grain iterations and runs body(t, lo, hi) for each chunk. Use a
// small grain (down to 1) for loops whose iterations are individually
// expensive — grid lines, z-slabs, atom chunks; per-worker scratch is taken
// inside the body. With one chunk, body(t, 0, n) runs on the caller's
// goroutine. A panic in a body is re-raised once every chunk has finished.
func ForRangeGrain[T any](n, grain int, t T, body func(T, int, int)) {
	if n <= 0 {
		return
	}
	workers := workersGrain(n, grain)
	if workers == 1 {
		body(t, 0, n)
		return
	}
	l := acquire[T](workers)
	l.t, l.span, l.items = t, body, n
	l.size = (n + workers - 1) / workers
	l.run((n+l.size-1)/l.size, workers)
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

// team is the one persistent worker team. mu guards the queue of open
// phases (oldest first, linked through phase.later), the free lists and the
// counts; epoch changes on every publish, so an idle worker can watch for
// work without the lock.
var team struct {
	mu    sync.Mutex
	wake  sync.Cond // parked workers wait here, on mu
	head  *phase
	free  map[any]*phase // idle descriptors per job type, keyed by (*T)(nil)
	size  atomic.Int32   // workers started
	idle  int            // parked workers not yet signalled
	stop  bool
	epoch atomic.Uint64
	wg    sync.WaitGroup
}

func init() {
	team.wake.L = &team.mu
	team.free = map[any]*phase{}
	grow(runtime.GOMAXPROCS(0) - 1)
}

// grow starts workers until the team has want of them.
func grow(want int) {
	team.mu.Lock()
	for id := int(team.size.Load()); id < want; id++ {
		team.size.Add(1)
		team.wg.Add(1)
		go worker(id)
	}
	team.mu.Unlock()
}

// worker runs chunks of the oldest open phase while there are any, then
// watches the epoch for spinYields yields and parks until a publish
// signals it. A worker beyond GOMAXPROCS−1, left from a larger setting,
// parks without watching.
func worker(id int) {
	defer team.wg.Done()
	for {
		found, e := help()
		if found {
			continue
		}
		if id < runtime.GOMAXPROCS(0)-1 {
			for spins := 0; spins < spinYields && team.epoch.Load() == e; spins++ {
				runtime.Gosched()
			}
		}
		team.mu.Lock()
		if team.stop {
			team.mu.Unlock()
			return
		}
		if team.epoch.Load() == e {
			team.idle++
			team.wake.Wait()
		}
		team.mu.Unlock()
	}
}

// phase is one published multi-worker call: chunks [0, n) are claimed in
// ascending order from next and counted down in left as they finish.
type phase struct {
	next, left atomic.Int64
	n          int64
	job        chunker
	later      *phase        // the next younger open phase
	done       chan struct{} // the last chunk finished off the caller's goroutine
	panicked   any           // the first panic of a chunk, under team.mu
	free       *phase        // the next idle descriptor of the same job type
}

// chunker runs one chunk of a phase; *loop[T] is the one implementation,
// so a phase keeps its job value without a closure.
type chunker interface{ chunk(c int) }

// loop is the descriptor of one For or ForRangeGrain call with job type T.
type loop[T any] struct {
	phase
	t           T
	each        func(T, int)      // For's body
	span        func(T, int, int) // ForRangeGrain's body
	items, size int               // ForRangeGrain: n items in chunks of size
}

func (l *loop[T]) chunk(c int) {
	if l.each != nil {
		l.each(l.t, c)
		return
	}
	lo := c * l.size
	l.span(l.t, lo, min(lo+l.size, l.items))
}

// acquire grows the team to GOMAXPROCS−1 if it lacks workers−1 members,
// and returns an idle descriptor for job type T, allocating one only when
// every descriptor of T is in use.
func acquire[T any](workers int) *loop[T] {
	if int(team.size.Load()) < workers-1 {
		grow(runtime.GOMAXPROCS(0) - 1)
	}
	key := any((*T)(nil))
	team.mu.Lock()
	ph := team.free[key]
	if ph != nil {
		team.free[key] = ph.free
	}
	team.mu.Unlock()
	if ph != nil {
		return ph.job.(*loop[T])
	}
	l := &loop[T]{phase: phase{done: make(chan struct{}, 1)}}
	l.job = l
	return l
}

// run publishes the filled descriptor as a phase of n chunks at the young
// end of the queue, waking up to workers−1 parked workers, works and joins
// it, returns the descriptor to T's free list and re-raises a chunk's
// panic.
//
//tme:noalloc
func (l *loop[T]) run(n, workers int) {
	ph := &l.phase
	ph.n = int64(n)
	ph.next.Store(0)
	ph.left.Store(int64(n))
	team.mu.Lock()
	q := &team.head
	for *q != nil {
		q = &(*q).later
	}
	*q = ph
	team.epoch.Add(1)
	for w := min(n, workers) - 1; w > 0 && team.idle > 0; w-- {
		team.idle--
		team.wake.Signal()
	}
	team.mu.Unlock()
	ph.join(ph.work(ph.next.Add(1) - 1))
	p := ph.panicked
	var zero T
	l.t, l.each, l.span, ph.panicked = zero, nil, nil, nil
	key := any((*T)(nil))
	team.mu.Lock()
	ph.free, team.free[key] = team.free[key], ph
	team.mu.Unlock()
	if p != nil {
		panic(p)
	}
}

// help runs chunks of the oldest open phase that has one unclaimed. It
// reports whether it found one, and the epoch it saw.
//
//tme:noalloc
func help() (bool, uint64) {
	team.mu.Lock()
	var ph *phase
	c := int64(0)
	for ph = team.head; ph != nil; ph = ph.later {
		if ph.next.Load() < ph.n {
			if c = ph.next.Add(1) - 1; c < ph.n {
				break
			}
		}
	}
	e := team.epoch.Load()
	team.mu.Unlock()
	if ph == nil {
		return false, e
	}
	if ph.left.Add(-ph.work(c)) == 0 {
		ph.done <- struct{}{}
	}
	return true, e
}

// work runs chunk c, if it exists, and every further chunk it can claim,
// and returns how many it ran. A claimed chunk not yet counted in left
// keeps the descriptor from being recycled.
//
//tme:noalloc
func (ph *phase) work(c int64) int64 {
	var ran int64
	for ; c < ph.n; c = ph.next.Add(1) - 1 {
		ph.runChunk(int(c))
		ran++
	}
	return ran
}

// runChunk runs one chunk; recoverChunk keeps its panic for the caller.
//
//tme:noalloc
func (ph *phase) runChunk(c int) {
	defer ph.recoverChunk()
	ph.job.chunk(c)
}

//tme:noalloc
func (ph *phase) recoverChunk() {
	if r := recover(); r != nil {
		team.mu.Lock()
		if ph.panicked == nil {
			ph.panicked = r
		}
		team.mu.Unlock()
	}
}

// join is the caller's side of its phase once it has claimed the last
// chunk, having run ran of them: it takes the phase off the queue and,
// while chunks run elsewhere, helps the oldest other open phase, watching
// the epoch for spinYields yields before it blocks.
//
//tme:noalloc
func (ph *phase) join(ran int64) {
	team.mu.Lock()
	q := &team.head
	for *q != ph {
		q = &(*q).later
	}
	*q, ph.later = ph.later, nil
	team.mu.Unlock()
	// With ran 0 the last chunk finishes elsewhere and signals done.
	if ran > 0 && ph.left.Add(-ran) == 0 {
		return
	}
	seen := ^uint64(0) // no epoch yet: scan first
	for spins := 0; spins < spinYields && ph.left.Load() != 0; spins++ {
		if team.epoch.Load() == seen {
			runtime.Gosched()
		} else if found, e := help(); found {
			seen, spins = ^uint64(0), 0
		} else {
			seen = e
		}
	}
	<-ph.done
}
