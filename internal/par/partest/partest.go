// Package partest holds the allocation gate of the parallel hot paths.
package partest

import (
	"runtime"
	"runtime/debug"
)

// AllocsPerRun is testing.AllocsPerRun at a given GOMAXPROCS, which
// testing.AllocsPerRun itself pins to 1, where every par loop runs its body
// directly. It runs f 2·runs times to warm up, then runs times more, and
// returns the integer mean of the heap allocations
// (runtime.MemStats.Mallocs) over the last runs. The warm-up is long
// because a new processor count starts with empty per-P caches — the
// runtime's sudogs, sync.Pool's private slots — which fill as goroutines
// block and move between processors. The collector is off meanwhile, so
// that a cycle emptying those caches and pools mid-count does not read as
// allocations of f.
func AllocsPerRun(procs, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 2*runs; i++ {
		f()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64((ms.Mallocs - before) / uint64(runs))
}
