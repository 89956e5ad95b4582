package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. The benchmark records spans from outside the
// program, around its calls into each layer; Parent is the index of the
// enclosing span in the file (-1 for a root) and Run names the pass that
// produced it.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
}

// tracer keeps spans in memory until write. A nil tracer records nothing,
// which is how the untraced pass runs the same code with tracing off.
type tracer struct {
	run   string
	t0    time.Time
	calls int // calls per layer probe

	mu    sync.Mutex
	spans []span
}

func newTracer(run string, calls int) *tracer {
	return &tracer{run: run, t0: time.Now(), calls: calls}
}

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, EndNs: now, Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNs = now
	return now - t.spans[id].StartNs
}

// write stores the spans as JSON in dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// A layer probe makes probeCalls calls (three in a smoke run), stopping
// early, after at least probeMinCalls, once the calls have used
// probeBudget: a 150 ms MSM solve does not get 30 turns.
const (
	probeCalls    = 30
	probeMinCalls = 5
	probeBudget   = 400 * time.Millisecond
)

// probe calls fn repeatedly, each call inside its own span under parent,
// and returns the median call time in nanoseconds. The first call is a
// warm-up (pools fill, lists size themselves) and is not counted.
func (t *tracer) probe(name string, parent int, fn func()) float64 {
	fn()
	var ns []float64
	var used time.Duration
	for i := 0; i < t.calls; i++ {
		if i >= probeMinCalls && used > probeBudget {
			break
		}
		start := time.Now()
		id := t.begin(name, parent)
		fn()
		t.end(id)
		d := time.Since(start)
		used += d
		ns = append(ns, float64(d.Nanoseconds()))
	}
	return median(ns)
}
