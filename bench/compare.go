package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// namedPass is a pass file with the name it was read from.
type namedPass struct {
	File string `json:"file"`
	passDoc
}

// loadPasses reads every *.json pass file of dir, in file-name order.
func loadPasses(dir string) ([]namedPass, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var passes []namedPass
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var doc passDoc
		if err := json.Unmarshal(data, &doc); err != nil || doc.Workloads == nil {
			continue // not a pass file (a span file, say)
		}
		passes = append(passes, namedPass{File: filepath.Base(f), passDoc: doc})
	}
	return passes, nil
}

// untraced keeps the end-to-end passes.
func untraced(passes []namedPass) []namedPass {
	var out []namedPass
	for _, p := range passes {
		if p.Header.Trace == 0 {
			out = append(out, p)
		}
	}
	return out
}

// series collects metric's values on workload over passes.
func series(passes []namedPass, workload, metric string) []float64 {
	var xs []float64
	for _, p := range passes {
		if m, ok := p.Workloads[workload].Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// failedShare is failed operations over attempted ones on workload.
func failedShare(passes []namedPass, workload string) float64 {
	var attempted, failed int
	for _, p := range passes {
		attempted += p.Workloads[workload].Attempted
		failed += p.Workloads[workload].Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// worsening is how much worse b is than a as a share of a, by the
// metric's direction; negative is an improvement.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// comparePasses prints, per workload and end-to-end metric, each side's
// median, how much worse B is than A, the bound and a verdict, plus each
// side's share of failed operations. It returns 1 if any metric of B is
// worse than A by more than its bound or B fails more operations.
func comparePasses(dirA, dirB string, stdout, stderr io.Writer) int {
	var sides [2][]namedPass
	for i, dir := range []string{dirA, dirB} {
		passes, err := loadPasses(dir)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		if sides[i] = untraced(passes); len(sides[i]) == 0 {
			fmt.Fprintf(stderr, "bench: no untraced pass files in %s\n", dir)
			return 2
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-11s %-17s %13s %13s %9s %6s  %s\n", "workload", "metric", "median A", "median B", "worse by", "bound", "verdict")
	for _, w := range workloadNames() {
		for _, d := range endToEnd {
			a, b := series(sides[0], w, d.Name), series(sides[1], w, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			worse := worsening(d, median(a), median(b))
			verdict := "ok"
			if worse > d.Bound {
				verdict, code = "REGRESSION", 1
			}
			fmt.Fprintf(stdout, "%-11s %-17s %13.6g %13.6g %+8.2f%% %5.0f%%  %s\n",
				w, d.Name, median(a), median(b), 100*worse, 100*d.Bound, verdict)
		}
		fa, fb := failedShare(sides[0], w), failedShare(sides[1], w)
		verdict := "ok"
		if fb > fa {
			verdict, code = "MORE FAILURES", 1
		}
		fmt.Fprintf(stdout, "%-11s %-17s %13.6g %13.6g %24s\n", w, "failed_share", fa, fb, verdict)
	}
	return code
}

// setStat is one (workload, metric) row of the baseline: the medians of
// two sets of passes of the same code, how far apart they are, and the
// full range over all of them.
type setStat struct {
	MedianA     float64 `json:"median_a"`
	MedianB     float64 `json:"median_b"`
	RelDiff     float64 `json:"rel_diff"`      // |B − A| ÷ A
	RangeOverMd float64 `json:"range_over_md"` // (max − min) ÷ median over both sets
	Bound       float64 `json:"bound"`
}

// baselineDoc is bench/baseline/<host>.json.
type baselineDoc struct {
	Header header `json:"header"`
	Method string `json:"method"`
	// Repeatability[workload][metric]: set A against set B on the main seed.
	Repeatability map[string]map[string]setStat `json:"repeatability"`
	Passes        []namedPass                   `json:"passes"`
}

// writeBaseline summarises a directory of pass files: the seed with the
// most untraced passes is split into a first and a second half (set A, set
// B) for the repeatability table, and every pass is kept verbatim.
func writeBaseline(dir string, stdout, stderr io.Writer) int {
	passes, err := loadPasses(dir)
	if err != nil || len(passes) == 0 {
		fmt.Fprintf(stderr, "bench: no pass files in %s (%v)\n", dir, err)
		return 2
	}
	bySeed := map[int64][]namedPass{}
	var mainSeed int64
	for _, p := range untraced(passes) {
		bySeed[p.Header.Seed] = append(bySeed[p.Header.Seed], p)
		if len(bySeed[p.Header.Seed]) > len(bySeed[mainSeed]) {
			mainSeed = p.Header.Seed
		}
	}
	main := bySeed[mainSeed]
	if len(main) < 2 {
		fmt.Fprintf(stderr, "bench: need at least two untraced passes on one seed, have %d\n", len(main))
		return 2
	}
	setA, setB := main[:len(main)/2], main[len(main)/2:]
	doc := baselineDoc{
		Header:        main[0].Header,
		Method:        fmt.Sprintf("set A = %d passes, set B = %d passes of the same code on seed %d, in file order", len(setA), len(setB), mainSeed),
		Repeatability: map[string]map[string]setStat{},
		Passes:        passes,
	}
	for _, w := range workloadNames() {
		doc.Repeatability[w] = map[string]setStat{}
		for _, d := range endToEnd {
			a, b, all := series(setA, w, d.Name), series(setB, w, d.Name), series(main, w, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			sort.Float64s(all)
			doc.Repeatability[w][d.Name] = setStat{
				MedianA: median(a), MedianB: median(b),
				RelDiff:     math.Abs(median(b)-median(a)) / math.Abs(median(a)),
				RangeOverMd: (all[len(all)-1] - all[0]) / math.Abs(median(all)),
				Bound:       d.Bound,
			}
		}
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
