package par

import (
	"bytes"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rows is a job of the team tests: row k of out is written by task k.
type rows struct{ out [][]float64 }

// value is the arithmetic every run must reproduce bit for bit.
func value(k, i int) float64 {
	x := float64(i+1) * (1 + float64(k)/7)
	return math.Sqrt(x) + math.Sin(x)/x
}

// task k fills its row through an inner ForRangeGrain whose chunks each
// run a For over their indices: three nested levels of phases.
func (r rows) task(k int) {
	ForRangeGrain(len(r.out[k]), 16, cell{r.out[k], k}, cell.span)
}

type cell struct {
	row []float64
	k   int
}

func (c cell) span(lo, hi int) {
	For(hi-lo, cell{c.row[lo:hi], c.k*1000 + lo}, cell.one)
}

func (c cell) one(i int) { c.row[i] = value(c.k/1000, c.k%1000+i) }

// TestConcurrentSubmittersBitwise: four goroutines submit nested For and
// ForRangeGrain calls at once, each filling its own rows; every value
// equals the serial one bit for bit at GOMAXPROCS 1, 2, 4 and 7. Under
// -race the unsynchronised row writes also prove each index ran once and
// every call returned after its last chunk.
func TestConcurrentSubmittersBitwise(t *testing.T) {
	const submitters, tasks, n = 4, 5, 300
	want := make([][]float64, tasks)
	for k := range want {
		want[k] = make([]float64, n)
		for i := range want[k] {
			want[k][i] = value(k, i)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 7} {
		runtime.GOMAXPROCS(procs)
		got := make([]rows, submitters)
		var wg sync.WaitGroup
		for s := range got {
			got[s].out = make([][]float64, tasks)
			for k := range got[s].out {
				got[s].out[k] = make([]float64, n)
			}
			wg.Add(1)
			go func(r rows) {
				defer wg.Done()
				For(tasks, r, rows.task)
			}(got[s])
		}
		wg.Wait()
		for s, r := range got {
			for k := range r.out {
				for i, v := range r.out[k] {
					if math.Float64bits(v) != math.Float64bits(want[k][i]) {
						t.Fatalf("GOMAXPROCS=%d submitter %d: out[%d][%d] = %v, want %v", procs, s, k, i, v, want[k][i])
					}
				}
			}
		}
	}
}

// TestGOMAXPROCSChangesBetweenCalls: the team grows to each new
// GOMAXPROCS, and a call after a shrink neither waits on nor misses a
// worker.
func TestGOMAXPROCSChangesBetweenCalls(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4, 2, 16} {
		runtime.GOMAXPROCS(procs)
		seen := make([]int, 1000)
		For(len(seen), seen, func(seen []int, i int) { seen[i]++ })
		ForRangeGrain(len(seen), 1, seen, func(seen []int, lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 2 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times, want 2", procs, i, c)
			}
		}
		if s := int(team.size.Load()); s < procs-1 {
			t.Errorf("GOMAXPROCS=%d: team has %d workers, want at least %d", procs, s, procs-1)
		}
	}
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() int {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.Atoi(string(b[:bytes.IndexByte(b, ' ')]))
	return id
}

// helpScene stages a helping join: the team's one worker blocks in a
// chunk of the occupier's phase, so the occupier waits in its join while
// the submitter's second chunk is still unclaimed.
type helpScene struct {
	occupier, submitter atomic.Int64 // goroutine ids
	ranBy               atomic.Int64 // who ran the panicking chunk
	busy, ready, hit    chan struct{}
	release             chan struct{}
}

// occupy is the occupier's loop body: its own chunk returns once the
// submitter's phase is open, the worker's chunk blocks until release.
func (s *helpScene) occupy(int) {
	if int64(goid()) == s.occupier.Load() {
		<-s.ready
		return
	}
	close(s.busy)
	<-s.release
}

// submit is the submitter's loop body: its own chunk waits for the other
// one, which whoever helps runs and which panics.
func (s *helpScene) submit(int) {
	if int64(goid()) == s.submitter.Load() {
		close(s.ready)
		<-s.hit
		return
	}
	s.ranBy.Store(int64(goid()))
	defer close(s.hit)
	panic("chunk panic")
}

// TestPanicReraisedOnOwner: a chunk that another submitter's join helped
// run panics; the panic is re-raised by the call that submitted the
// chunk, once its chunks have finished, and not on the helper.
func TestPanicReraisedOnOwner(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	stopTeam()
	s := &helpScene{
		busy: make(chan struct{}), ready: make(chan struct{}),
		hit: make(chan struct{}), release: make(chan struct{}),
	}
	occupied := make(chan any, 1)
	go func() {
		defer func() { occupied <- recover() }()
		s.occupier.Store(int64(goid()))
		For(2, s, (*helpScene).occupy)
	}()
	<-s.busy
	var got any
	func() {
		defer func() { got = recover() }()
		s.submitter.Store(int64(goid()))
		For(2, s, (*helpScene).submit)
	}()
	close(s.release)
	if r := <-occupied; r != nil {
		t.Errorf("the helping occupier panicked: %v", r)
	}
	if got != "chunk panic" {
		t.Errorf("submitter recovered %v, want the chunk's panic", got)
	}
	if by := s.ranBy.Load(); by != s.occupier.Load() {
		t.Errorf("the panicking chunk ran on goroutine %d, want the occupier %d helping", by, s.occupier.Load())
	}
}

// TestStopTeamJoinsWorkers: after stopTeam the goroutine count is back at
// its baseline, and the next multi-worker call grows the team again.
func TestStopTeamJoinsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	stopTeam()
	base := runtime.NumGoroutine()
	seen := make([]int, 100)
	For(len(seen), seen, func(seen []int, i int) { seen[i]++ })
	if s := team.size.Load(); s != 3 {
		t.Errorf("team has %d workers after a 4-worker call, want 3", s)
	}
	stopTeam()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after stopTeam, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
	For(len(seen), seen, func(seen []int, i int) { seen[i]++ })
	for i, c := range seen {
		if c != 2 {
			t.Fatalf("index %d ran %d times, want 2", i, c)
		}
	}
}
