package expt

import (
	"fmt"
	"io"

	"tme4a/internal/core"
	"tme4a/internal/hw/machine"
	"tme4a/internal/perfmodel"
	"tme4a/internal/protein"
	"tme4a/internal/spme"
)

// HWContext bundles the machine model with the paper's 80,540-atom
// workload, shared by the Fig. 9/10, Table 2 and Sec. VI experiments.
type HWContext struct {
	Cfg      machine.Config
	Workload *machine.Workload
	Prm      core.Params
}

// NewHWContext builds the paper workload and decomposes it onto the
// machine.
func NewHWContext() *HWContext {
	cfg := machine.MDGRAPE4A()
	ps := protein.Build(protein.PaperTarget())
	return &HWContext{
		Cfg:      cfg,
		Workload: cfg.Decompose(ps.System, ps.Bonded, 1.2),
		Prm: core.Params{
			Alpha: spme.Alpha(1.2), Rc: 1.2, Order: 6,
			N: [3]int{32, 32, 32}, Levels: 1, M: 4, Gc: 8,
		},
	}
}

// RunFig9 simulates one MD step and renders the machine time chart
// (paper Fig. 9).
func (h *HWContext) RunFig9(w io.Writer) *machine.StepReport {
	rep := h.Cfg.SimulateStep(h.Workload, h.Prm, true)
	if w != nil {
		fmt.Fprintf(w, "# Fig 9: single-step time chart, %d atoms on %d nodes\n",
			h.Workload.TotalAtoms, h.Workload.NNodes)
		fmt.Fprint(w, rep.Chart.Render(100))
		fmt.Fprintf(w, "step time: %.1f us (paper: 206 us)\n", rep.StepNs/1e3)
		fmt.Fprintf(w, "throughput at 2.5 fs: %.2f us/day (paper: ~1.0)\n",
			rep.PerformanceNsPerDay(2.5)/1e3)
	}
	return rep
}

// RunFig10 reports the detailed long-range phase breakdown (paper Fig. 10
// and Sec. V.B).
func (h *HWContext) RunFig10(w io.Writer) machine.LongRangePhases {
	rep := h.Cfg.SimulateStep(h.Workload, h.Prm, true)
	lr := rep.LR
	if w != nil {
		fmt.Fprintf(w, "# Fig 10 / Sec V.B: long-range phase breakdown (us)\n")
		fmt.Fprintf(w, "phase,measured_us,paper_us\n")
		fmt.Fprintf(w, "charge_assignment+back_interp,%.1f,~10\n", (lr.CA+lr.BI)/1e3)
		fmt.Fprintf(w, "restriction,%.2f,1.5\n", lr.Restrict/1e3)
		fmt.Fprintf(w, "level1_convolution,%.2f,6\n", lr.Conv/1e3)
		fmt.Fprintf(w, "prolongation,%.2f,1.5\n", lr.Prolong/1e3)
		fmt.Fprintf(w, "tmenw_roundtrip,%.1f,<20\n", lr.TMENW/1e3)
		fmt.Fprintf(w, "long_range_total,%.1f,~50\n", lr.Total/1e3)
	}
	return lr
}

// RunOverlap reproduces Sec. V.C: step time with and without the
// long-range part, and the ~5% overlap cost.
func (h *HWContext) RunOverlap(w io.Writer) (withLR, withoutLR float64) {
	r1 := h.Cfg.SimulateStep(h.Workload, h.Prm, true)
	r0 := h.Cfg.SimulateStep(h.Workload, h.Prm, false)
	withLR, withoutLR = r1.StepNs, r0.StepNs
	if w != nil {
		fmt.Fprintf(w, "# Sec V.C: overlap of long-range with short-range/bonded\n")
		fmt.Fprintf(w, "with_long_range_us,%.1f (paper: 206)\n", withLR/1e3)
		fmt.Fprintf(w, "without_long_range_us,%.1f (paper: 196)\n", withoutLR/1e3)
		fmt.Fprintf(w, "overhead_us,%.1f (paper: ~10, ~5%%)\n", (withLR-withoutLR)/1e3)
		fmt.Fprintf(w, "overhead_fraction,%.1f%%\n", (withLR-withoutLR)/withoutLR*100)
	}
	return withLR, withoutLR
}

// RunTable2 assembles Table 2: the literature rows plus the simulated
// MDGRAPE-4A row.
func (h *HWContext) RunTable2(w io.Writer) []perfmodel.Table2Row {
	rep := h.Cfg.SimulateStep(h.Workload, h.Prm, true)
	rows := perfmodel.LiteratureRows()
	mdg := perfmodel.Table2Row{
		System:       "MDGRAPE-4A (512 nodes)",
		Method:       "TME",
		PerfUsPerDay: rep.PerformanceNsPerDay(2.5) / 1e3,
		StepUs:       rep.StepNs / 1e3,
		LongRangeUs:  rep.LR.Total / 1e3,
	}
	// Insert in throughput order (between GPU cluster and Anton 1).
	out := append([]perfmodel.Table2Row{}, rows[:2]...)
	out = append(out, mdg)
	out = append(out, rows[2:]...)
	if w != nil {
		fmt.Fprintf(w, "# Table 2: performance comparison (50k-100k atom targets)\n")
		fmt.Fprintf(w, "system,method,performance_us_per_day,time_per_step_us,long_range_us,source\n")
		for _, r := range out {
			src := "simulated"
			if r.FromLiterature {
				src = "literature"
			}
			fmt.Fprintf(w, "%s,%s,%.2f,%.0f,%.0f,%s\n",
				r.System, r.Method, r.PerfUsPerDay, r.StepUs, r.LongRangeUs, src)
		}
	}
	return out
}

// RunGrid64 reproduces the Sec. VI.A projection: the 64³ (L = 2) TME.
func (h *HWContext) RunGrid64(w io.Writer) (lr32, lr64 machine.LongRangePhases) {
	rep32 := h.Cfg.SimulateStep(h.Workload, h.Prm, true)
	prm64 := h.Prm
	prm64.N = [3]int{64, 64, 64}
	prm64.Levels = 2
	rep64 := h.Cfg.SimulateStep(h.Workload, prm64, true)
	if w != nil {
		fmt.Fprintf(w, "# Sec VI.A: 64^3 grid (L=2) projection\n")
		fmt.Fprintf(w, "quantity,32^3,64^3,paper_64^3\n")
		fmt.Fprintf(w, "gcu_total_us,%.1f,%.1f,~72 (8x)\n",
			(rep32.LR.Restrict+rep32.LR.Conv+rep32.LR.Prolong)/1e3,
			(rep64.LR.Restrict+rep64.LR.Conv+rep64.LR.Prolong)/1e3)
		fmt.Fprintf(w, "long_range_total_us,%.1f,%.1f,~150\n",
			rep32.LR.Total/1e3, rep64.LR.Total/1e3)
	}
	return rep32.LR, rep64.LR
}

// RunCostModel prints the Sec. III.C analytic comparison and the
// strong-scaling curves.
func RunCostModel(w io.Writer) []perfmodel.CostRow {
	rows := perfmodel.CostTable(8, 4)
	if w != nil {
		fmt.Fprintf(w, "# Sec III.C: level-1 convolution cost, gc=8, M=4\n")
		fmt.Fprintf(w, "gamma,Nx/Px,comp_MSM,comp_TME,comp_ratio,comm_MSM,comm_TME,comm_ratio\n")
		for _, r := range rows {
			fmt.Fprintf(w, "%.1f,%d,%.3e,%.3e,%.1f,%.3e,%.3e,%.1f\n",
				r.Gamma, r.NxPx, r.CompMSM, r.CompTME, r.CompRatio,
				r.CommMSM, r.CommTME, r.CommRatio)
		}
		s := perfmodel.DefaultScaling()
		fmt.Fprintf(w, "\n# strong scaling model (arbitrary time units), 64^3 grid\n")
		fmt.Fprintf(w, "procs,PME,MSM,TME\n")
		for p := 8; p <= 8192; p *= 2 {
			fmt.Fprintf(w, "%d,%.0f,%.0f,%.0f\n", p, s.PMETime(p), s.MSMTime(p), s.TMETime(p))
		}
	}
	return rows
}
