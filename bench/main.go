// Command bench is the repository benchmark: three workloads, six gated
// end-to-end metrics measured with tracing off, and a separate traced pass
// that measures every layer from outside. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	bench -seed 7                          every workload, end-to-end metrics
//	bench -workload mesh-fine -seed 7      one workload
//	bench -trace 1 -seed 7                 the traced pass: per-layer metrics + span files
//	bench -smoke                           every workload at toy size, checks on, seconds
//	bench -compare A B                     compare two directories of pass files
//	bench -baseline DIR                    summarise pass files into a baseline document
//	bench -hold-cpu N                      internal: the idle holder of processor N (hold_linux.go)
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// benchProcs pins GOMAXPROCS for every workload: the review host has two
// processors, and a run must never put more threads or connections of
// load on it than that.
const benchProcs = 2

// defaultSeconds is BENCHMARK.json's run_seconds: the budget the workload
// step and job counts are calibrated against.
const defaultSeconds = 25

// workload is one named entry of BENCHMARK.json's workloads list.
type workload struct {
	name  string
	run   func(seed int64, sc scale) (result, error)
	trace func(seed int64, sc scale, outdir string, log io.Writer) (result, error)
}

// mixSystem is the system serve-mix's traced pass probes the layers on:
// one tme-mid job's box and resolved solver parameters.
func mixSystem() solo {
	sp := mixClasses[0].spec
	sp.Normalize()
	return solo{name: "serve-mix", side: sp.Side, rc: sp.Rc, grid: sp.Grid, skin: sp.Skin, equil: sp.Equil, stepsPerSecond: 16, accBoxes: 1}
}

func workloads() []workload {
	var ws []workload
	for _, w := range soloWorkloads {
		fit := func(sc scale) solo {
			if sc.smoke {
				return w.shrink()
			}
			return w
		}
		ws = append(ws, workload{
			name: w.name,
			run:  func(seed int64, sc scale) (result, error) { return fit(sc).runSolo(seed, sc) },
			trace: func(seed int64, sc scale, outdir string, log io.Writer) (result, error) {
				s := fit(sc)
				return tracedPass(s, s.probeFleet(seed, sc), "probe", seed, sc, outdir, log)
			},
		})
	}
	return append(ws, workload{
		name: "serve-mix",
		run:  runServeMix,
		trace: func(seed int64, sc scale, outdir string, log io.Writer) (result, error) {
			half := sc
			half.seconds /= 2 // the traced pass serves half the mix
			return tracedPass(mixSystem(), mixFleet(seed, half), "tme-mid", seed, sc, outdir, log)
		},
	})
}

// header names the host and the run; it is printed first and stored in
// every pass file, so a number is never without its GOMAXPROCS and seed.
type header struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Smoke      bool    `json:"smoke,omitempty"`
}

// passDoc is one pass file: what -out writes and -compare reads.
type passDoc struct {
	Header    header            `json:"header"`
	Workloads map[string]result `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload (default: all)")
		seed     = fs.Int64("seed", 7, "workload seed: same seed, same inputs")
		seconds  = fs.Float64("seconds", defaultSeconds, "run-length budget; fixes the step and job counts")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and span files")
		smoke    = fs.Bool("smoke", false, "toy-sized workloads, one replay, all checks on")
		out      = fs.String("out", "", "also write the results to this pass file")
		outdir   = fs.String("outdir", filepath.Join("bench", "out"), "directory for span files")
		rev      = fs.String("rev", "unknown", "git revision to record in the header")
		compare  = fs.Bool("compare", false, "compare two directories of pass files: bench -compare A B")
		baseline = fs.String("baseline", "", "summarise the pass files of this directory into a baseline document")
		holdOn   = fs.Int("hold-cpu", -1, "internal: run as the idle holder of this processor")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *holdOn >= 0:
		return holdCPU(*holdOn)
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two directories")
			return 2
		}
		return comparePasses(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *baseline != "":
		return writeBaseline(*baseline, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1, -seconds is positive, and there are no positional arguments")
		return 2
	}

	runtime.GOMAXPROCS(benchProcs)
	sc := scale{seconds: *seconds, warm: 20, replays: 3, smoke: *smoke}
	if sc.smoke {
		sc.warm, sc.replays = 2, 1
	} else {
		// A smoke run claims no timing, and the tests that make one run in
		// a test binary, which cannot be started again as a holder.
		defer startHolders()()
	}
	doc := passDoc{
		Header: header{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GitRev: *rev, Seed: *seed, Seconds: *seconds, Trace: *trace, Smoke: *smoke,
		},
		Workloads: map[string]result{},
	}
	fmt.Fprintf(stdout, "# tme4a bench: NumCPU=%d GOMAXPROCS=%d %s rev=%s seed=%d seconds=%g trace=%d smoke=%t\n",
		doc.Header.NumCPU, doc.Header.GOMAXPROCS, doc.Header.GoVersion, *rev, *seed, *seconds, *trace, *smoke)

	for _, w := range workloads() {
		if *name != "" && w.name != *name {
			continue
		}
		var res result
		var err error
		if *trace == 1 {
			res, err = w.trace(*seed, sc, *outdir, stdout)
		} else {
			res, err = w.run(*seed, sc)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, w.name, res)
		doc.Workloads[w.name] = res
	}
	if len(doc.Workloads) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	// Last line: the one workload's result, or the whole pass.
	var line []byte
	if *name != "" {
		line, _ = json.Marshal(doc.Workloads[*name])
	} else {
		line, _ = json.Marshal(doc)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printResult writes a workload's metrics by name with their units, its
// operation counts, and the note of every failed operation.
func printResult(w io.Writer, name string, res result) {
	fmt.Fprintf(w, "== %s: ops_attempted=%d ops_failed=%d correct=%t\n", name, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "   %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, note := range res.notes {
		fmt.Fprintf(w, "   FAILED: %s\n", note)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
