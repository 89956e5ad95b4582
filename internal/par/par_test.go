package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForRangeCoversExactly checks that ForRange visits every index exactly
// once for trip counts just below, at, and above the minChunk boundaries
// where the worker-count formula changes value.
func TestForRangeCoversExactly(t *testing.T) {
	counts := []int{0, 1, minChunk - 1, minChunk, minChunk + 1,
		2*minChunk - 1, 2 * minChunk, 2*minChunk + 1, 7*minChunk + 13}
	for _, n := range counts {
		var mu sync.Mutex
		seen := make([]int, n)
		ForRange(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("n=%d: bad chunk [%d,%d)", n, lo, hi)
			}
			mu.Lock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForRangeGrainCoversExactly(t *testing.T) {
	for _, grain := range []int{0, 1, 3, 64} {
		n := 37
		var visited atomic.Int64
		ForRangeGrain(n, grain, &visited, func(v *atomic.Int64, lo, hi int) {
			v.Add(int64(hi - lo))
		})
		if got := visited.Load(); got != int64(n) {
			t.Fatalf("grain=%d: visited %d of %d", grain, got, n)
		}
	}
}

// TestWorkersMatchesForRange pins the one worker-count formula: ForRange
// and ForRangeGrain run exactly workersGrain(n, grain) chunks, including
// the n < grain case where the quotient is zero.
func TestWorkersMatchesForRange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{1, minChunk - 1, minChunk, 4 * minChunk, 1000} {
		var chunks atomic.Int64
		ForRange(n, func(lo, hi int) { chunks.Add(1) })
		if w := workersGrain(n, minChunk); chunks.Load() != int64(w) {
			t.Errorf("n=%d: ForRange ran %d chunks, workersGrain=%d", n, chunks.Load(), w)
		}
	}
	if w := workersGrain(10, 1); w != 4 {
		t.Errorf("workersGrain(10,1) = %d at GOMAXPROCS=4, want 4", w)
	}
	if w := workersGrain(2, 1); w != 2 {
		t.Errorf("workersGrain(2,1) = %d, want 2", w)
	}
}

func TestForSeesAllIndices(t *testing.T) {
	n := 5 * minChunk
	var sum atomic.Int64
	For(n, &sum, func(s *atomic.Int64, i int) { s.Add(int64(i)) })
	if want := int64(n) * int64(n-1) / 2; sum.Load() != want {
		t.Errorf("sum %d, want %d", sum.Load(), want)
	}
}

// TestForRunsEachIndexOnce: whatever the worker count, every index is
// claimed by exactly one worker and For returns only after all of them ran.
// The per-index slots are written without synchronisation, so under -race a
// double claim or an early return is a reported race, not just a bad count.
func TestForRunsEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 7, 16} {
		old := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, procs - 1, procs, procs + 1, 24, 1000} {
			seen := make([]int, n)
			For(n, seen, func(seen []int, i int) { seen[i]++ })
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: index %d ran %d times", procs, n, i, c)
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestNestedForRunsEachIndexOnce is the force-term pattern: an outer For
// over a few heterogeneous tasks whose bodies each run an inner For. Every
// inner index must run exactly once, and the outer call must return only
// after every inner call has. Run under -race at several -cpu counts.
func TestNestedForRunsEachIndexOnce(t *testing.T) {
	seen := make([][]int, 3)
	for k := range seen {
		seen[k] = make([]int, 100*(k+1))
	}
	For(len(seen), seen, func(seen [][]int, k int) {
		For(len(seen[k]), seen[k], func(row []int, i int) { row[i]++ })
	})
	for k, row := range seen {
		for i, c := range row {
			if c != 1 {
				t.Fatalf("task %d index %d ran %d times", k, i, c)
			}
		}
	}
}

// job is a value-typed loop argument of the form the hot loops use: slices
// only, with method-expression bodies.
type job struct{ src, dst []float64 }

func (j job) each(i int) { j.dst[i] = 2 * j.src[i] }

func (j job) span(lo, hi int) {
	for i := lo; i < hi; i++ {
		j.dst[i] += j.src[i]
	}
}

// TestJobValueZeroAlloc: with one worker, a job value and a method
// expression reach the body without any allocation, so a hot caller needs
// no serial branch of its own.
func TestJobValueZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	j := job{make([]float64, 1000), make([]float64, 1000)}
	if a := testing.AllocsPerRun(100, func() { For(len(j.src), j, job.each) }); a != 0 {
		t.Errorf("For allocates %.1f per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { ForRangeGrain(len(j.src), 1, j, job.span) }); a != 0 {
		t.Errorf("ForRangeGrain allocates %.1f per call", a)
	}
}
