package obs

import (
	"fmt"
	"io"
	"strings"
)

// StageStat is one stage row of a Report.
type StageStat struct {
	Stage      string  `json:"stage"`
	TotalNs    int64   `json:"total_ns"`
	Count      int64   `json:"count"`
	MeanStepNs int64   `json:"mean_step_ns"` // TotalNs / Steps (0 when no steps recorded)
	Share      float64 `json:"share_of_step"`
}

// CounterStat is one counter row of a Report.
type CounterStat struct {
	Counter string `json:"counter"`
	Value   int64  `json:"value"`
}

// Report is an immutable snapshot of a recorder, shaped for both the
// Fig 9-style text chart (Render) and machine-readable JSON (mdserve's
// GET /jobs/{id}/metrics).
// Stage order is pipeline order; only stages that recorded at least one
// span appear. Shares are relative to the step-total stage when present,
// otherwise to the largest stage (stages nest, so shares need not sum
// to 100%).
type Report struct {
	Label      string        `json:"label"`
	Atoms      int           `json:"atoms"`
	Steps      int64         `json:"steps"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Stages     []StageStat   `json:"stages"`
	Counters   []CounterStat `json:"counters"`
}

// Report snapshots the recorder. label names the run in the chart header,
// atoms and gomaxprocs describe the workload (callers pass
// runtime.GOMAXPROCS(0); obs does not read runtime state itself so
// snapshots stay pure). On a nil recorder it returns an empty report.
func (r *Recorder) Report(label string, atoms, gomaxprocs int) Report {
	rep := Report{Label: label, Atoms: atoms, GOMAXPROCS: gomaxprocs}
	if r == nil {
		return rep
	}
	rep.Steps = r.StageCount(StageStep)
	// Denominator: the step total when recorded, else the largest stage.
	var denom int64
	if ns := r.StageNs(StageStep); ns > 0 {
		denom = ns
	} else {
		for s := Stage(0); s < NumStages; s++ {
			if ns := r.StageNs(s); ns > denom {
				denom = ns
			}
		}
	}
	for s := Stage(0); s < NumStages; s++ {
		count := r.StageCount(s)
		if count == 0 {
			continue
		}
		st := StageStat{
			Stage:   s.JSONName(),
			TotalNs: r.StageNs(s),
			Count:   count,
		}
		if rep.Steps > 0 {
			st.MeanStepNs = st.TotalNs / rep.Steps
		}
		if denom > 0 {
			st.Share = float64(st.TotalNs) / float64(denom)
		}
		rep.Stages = append(rep.Stages, st)
	}
	for c := Counter(0); c < NumCounters; c++ {
		if v := r.CounterValue(c); v != 0 {
			rep.Counters = append(rep.Counters, CounterStat{Counter: c.String(), Value: v})
		}
	}
	return rep
}

// Render writes the Fig 9-style text chart: one bar per recorded stage,
// scaled to the stage's share of the step total, with the mean per-step
// time alongside. width is the bar width in characters (≤ 0 uses 50).
func (rep Report) Render(w io.Writer, width int) {
	if width <= 0 {
		width = 50
	}
	fmt.Fprintf(w, "# %s: per-stage machine time, %d atoms, %d steps, GOMAXPROCS=%d\n",
		rep.Label, rep.Atoms, rep.Steps, rep.GOMAXPROCS)
	if len(rep.Stages) == 0 {
		fmt.Fprintf(w, "(no stages recorded)\n")
		return
	}
	labelW := 0
	for _, st := range rep.Stages {
		if l := len(chartLabel(st.Stage)); l > labelW {
			labelW = l
		}
	}
	for _, st := range rep.Stages {
		bar := int(st.Share*float64(width) + 0.5)
		if bar > width {
			bar = width
		}
		mean := st.MeanStepNs
		if rep.Steps == 0 {
			mean = st.TotalNs
		}
		fmt.Fprintf(w, "%-*s |%-*s| %5.1f%% %12s/step  (%d spans)",
			labelW, chartLabel(st.Stage), width, strings.Repeat("#", bar),
			100*st.Share, fmtNs(mean), st.Count)
		// The pair kernel's unit cost: the whole short-range stage (list
		// rebuilds included) over the pairs it evaluated inside the cutoff.
		if st.Stage == StageShortRange.JSONName() {
			if pairs := rep.counter(CounterPairsEvaluated); pairs > 0 {
				fmt.Fprintf(w, "  %.1f ns/evaluated pair", float64(st.TotalNs)/float64(pairs))
			}
		}
		fmt.Fprintln(w)
	}
	if len(rep.Counters) > 0 {
		fmt.Fprintf(w, "# counters\n")
		for _, c := range rep.Counters {
			fmt.Fprintf(w, "%-*s %d\n", labelW+2, c.Counter, c.Value)
		}
	}
}

// counter returns the reported value of c, zero when it was never bumped.
func (rep Report) counter(c Counter) int64 {
	for _, cs := range rep.Counters {
		if cs.Counter == c.String() {
			return cs.Value
		}
	}
	return 0
}

// chartLabel returns the chart label of the stage with the given JSON
// name, or the name itself for a stage this build does not know.
func chartLabel(jsonName string) string {
	for s := Stage(0); s < NumStages; s++ {
		if s.JSONName() == jsonName {
			return s.String()
		}
	}
	return jsonName
}

// fmtNs renders a nanosecond quantity with a human unit. The breakpoints
// are fixed so golden tests stay stable.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2f s", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2f ms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1f us", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%d ns", ns)
	}
}
