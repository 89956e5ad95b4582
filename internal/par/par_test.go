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
		var visited int64
		ForRangeGrain(n, grain, func(lo, hi int) {
			atomic.AddInt64(&visited, int64(hi-lo))
		})
		if visited != int64(n) {
			t.Fatalf("grain=%d: visited %d of %d", grain, visited, n)
		}
	}
}

// TestWorkersMatchesForRange pins the satellite fix: ForRange and Workers
// must share one worker-count formula, including the n < minChunk case
// where the quotient is zero.
func TestWorkersMatchesForRange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{1, minChunk - 1, minChunk, 4 * minChunk, 1000} {
		if w := Workers(n); w != WorkersGrain(n, minChunk) {
			t.Errorf("n=%d: Workers=%d, WorkersGrain=%d", n, w, WorkersGrain(n, minChunk))
		}
		if w := Workers(n); w < 1 {
			t.Errorf("n=%d: Workers=%d < 1", n, w)
		}
	}
	if w := WorkersGrain(10, 1); w != 4 {
		t.Errorf("WorkersGrain(10,1) = %d at GOMAXPROCS=4, want 4", w)
	}
	if w := WorkersGrain(2, 1); w != 2 {
		t.Errorf("WorkersGrain(2,1) = %d, want 2", w)
	}
}

func TestSumFloat64(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{0, 1, minChunk, 10 * minChunk} {
		got := SumFloat64(n, func(i int) float64 { return float64(i) })
		want := float64(n) * float64(n-1) / 2
		if n == 0 {
			want = 0
		}
		if got != want {
			t.Errorf("n=%d: sum %g, want %g", n, got, want)
		}
	}
}

func TestForSeesAllIndices(t *testing.T) {
	n := 5 * minChunk
	var sum int64
	For(n, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if want := int64(n) * int64(n-1) / 2; sum != want {
		t.Errorf("sum %d, want %d", sum, want)
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
			if n < 0 {
				continue
			}
			seen := make([]int, n)
			For(n, func(i int) { seen[i]++ })
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: index %d ran %d times", procs, n, i, c)
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}
