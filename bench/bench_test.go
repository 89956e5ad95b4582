package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// No test here asserts on wall-clock time (ROADMAP item 0): the smoke runs
// check correctness and the shape of the output, never a duration.

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("median reordered its input: %v", xs)
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if median(nil) != 0 || percentile(nil, 50) != 0 {
		t.Error("empty input must give 0")
	}
}

func TestFilterSeriesIsPerIndexMedian(t *testing.T) {
	// Step 1 is disturbed in one replay only: filtered out. Step 3 is slow
	// in every replay (a rebuild): kept.
	got := filterSeries([][]float64{
		{10, 90, 10, 60},
		{11, 10, 12, 61},
		{12, 11, 11, 62},
	})
	if want := []float64{11, 11, 11, 61}; !reflect.DeepEqual(got, want) {
		t.Errorf("filterSeries = %v, want %v", got, want)
	}
}

func TestJobOrderIsAPureFunctionOfTheSeed(t *testing.T) {
	counts := []int{5, 2, 1, 1, 1}
	a, b := jobOrder(counts, 7), jobOrder(counts, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different orders: %v vs %v", a, b)
	}
	if reflect.DeepEqual(a, jobOrder(counts, 11)) {
		t.Errorf("seeds 7 and 11 give the same order %v", a)
	}
	got := make([]int, len(counts))
	for _, c := range a {
		got[c]++
	}
	if !reflect.DeepEqual(got, counts) {
		t.Errorf("order %v has class counts %v, want %v", a, got, counts)
	}
}

func TestMixFleetSeedsAndScales(t *testing.T) {
	jobs := mixFleet(7, scale{seconds: defaultSeconds})
	if len(jobs) != 12 {
		t.Fatalf("%d jobs at the default budget, want 12", len(jobs))
	}
	for i, j := range jobs {
		if want := int64(7000 + i); j.spec.Seed != want {
			t.Errorf("job %d has seed %d, want %d", i, j.spec.Seed, want)
		}
	}
	if n := len(mixFleet(7, scale{seconds: 2 * defaultSeconds})); n != 24 {
		t.Errorf("%d jobs at twice the default budget, want 24", n)
	}
}

func TestEnergyDrift(t *testing.T) {
	// Total energy stepping by ±2 around a kinetic energy of 100.
	got := energyDrift([]float64{0, 2, 0, 2, 0}, []float64{100, 100, 100, 100, 100})
	if math.Abs(got-0.02) > 1e-15 {
		t.Errorf("energyDrift = %g, want 0.02", got)
	}
}

func TestWorseningFollowsTheDirection(t *testing.T) {
	lower, higher := metricDef{Better: "lower"}, metricDef{Better: "higher"}
	if got := worsening(lower, 10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10 → 11 worsens by %g, want 0.1", got)
	}
	if got := worsening(higher, 10, 11); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 10 → 11 worsens by %g, want -0.1", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json; unknown keys fail the decode.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	legal := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("illegal name %q", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: illegal unit %q", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the binary is calibrated for %d", f.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}

	var got, want []string
	for _, w := range f.Workloads {
		legal(w.Name, "")
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		got = append(got, w.Name)
	}
	if want = workloadNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("workloads = %v, the binary runs %v", got, want)
	}

	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	var e2e []metricDef
	largest := 0.0
	for _, m := range f.EndToEnd {
		legal(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = math.Max(largest, m.Bound)
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end = %v, the binary reports %v", e2e, endToEnd)
	}
	if s := endToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != largest {
		t.Errorf("setup_s must be in seconds, lower-is-better, with the largest bound: %+v", s)
	}

	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	var layers []metricDef
	for _, m := range f.PerLayer {
		legal(m.Name, m.Unit)
		layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs from the binary's table:\n file   %v\n binary %v", layers, perLayer)
	}
}

// smoke runs the binary's entry point at toy size and returns the pass it
// prints as its last line.
func smoke(t *testing.T, args ...string) passDoc {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d\nstderr: %s\nstdout: %s", args, code, &stderr, &stdout)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var doc passDoc
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
		t.Fatalf("last line is not a pass document: %v\n%s", err, lines[len(lines)-1])
	}
	return doc
}

// checkPass holds every workload of doc to zero failed operations and to
// exactly the metric names of defs.
func checkPass(t *testing.T, doc passDoc, defs []metricDef) {
	t.Helper()
	var want []string
	for _, d := range defs {
		want = append(want, d.Name)
	}
	sort.Strings(want)
	for _, w := range workloadNames() {
		res, ok := doc.Workloads[w]
		if !ok {
			t.Errorf("workload %s did not run", w)
			continue
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		var got []string
		for n, m := range res.Metrics {
			got = append(got, n)
			if !isFinite(m.Value) {
				t.Errorf("%s: %s is %g", w, n, m.Value)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s reports %v, want %v", w, got, want)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	doc := smoke(t, "-smoke", "-outdir", t.TempDir())
	checkPass(t, doc, endToEnd)
	for w, res := range doc.Workloads {
		for n, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %g, must never be 0", w, n, m.Value)
			}
		}
	}
}

func TestSmokeTracedPass(t *testing.T) {
	dir := t.TempDir()
	doc := smoke(t, "-smoke", "-trace", "1", "-outdir", dir)
	checkPass(t, doc, perLayer)
	for _, w := range workloadNames() {
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+w+".json"))
		if err != nil {
			t.Errorf("span file: %v", err)
			continue
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: span file has %d spans, err %v", w, len(spans), err)
			continue
		}
		for i, s := range spans {
			if s.Name == "" || s.Run == "" || s.EndNs < s.StartNs || s.Parent >= i || s.Parent < -1 {
				t.Errorf("%s: malformed span %d: %+v", w, i, s)
				break
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	write := func(dir string, step float64, failed int) {
		doc := passDoc{Workloads: map[string]result{"mesh-fine": {
			Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"step_ms_p50": {step, "ms"}, "ns_per_day": {86.4 / step, "ns/day"}},
		}}}
		if err := writeJSON(filepath.Join(dir, "pass-1.json"), doc); err != nil {
			t.Fatal(err)
		}
	}
	base, same, slow, broken := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	write(base, 20, 0)
	write(same, 22, 0)   // 10 % worse: inside the 25 % bound
	write(slow, 26, 0)   // 30 % worse
	write(broken, 20, 1) // same speed, one failed operation
	for _, c := range []struct {
		name string
		b    string
		want int
	}{{"inside the bound", same, 0}, {"regression", slow, 1}, {"more failures", broken, 1}} {
		var stdout, stderr bytes.Buffer
		if got := comparePasses(base, c.b, &stdout, &stderr); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, got, c.want, &stdout, &stderr)
		}
	}
}
