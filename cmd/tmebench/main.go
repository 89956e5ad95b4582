// Command tmebench regenerates every table and figure of the paper's
// evaluation:
//
//	tmebench -exp fig3a      Gaussian-sum approximation of g_{α,l} (Fig 3a)
//	tmebench -exp fig3b      approximation error vs M (Fig 3b)
//	tmebench -exp table1     relative force errors of SPME and TME (Table 1)
//	tmebench -exp shootout   kernel-family accuracy/cost shootout (GL vs u-series)
//	tmebench -exp fig4       NVE total-energy stability (Fig 4)
//	tmebench -exp fig4resume crash/resume bitwise-identity harness
//	tmebench -exp fig9       single-step machine time chart (Fig 9)
//	tmebench -exp fig9live   measured per-stage step breakdown (live Fig 9)
//	tmebench -exp fig10      long-range phase breakdown (Fig 10, Sec V.B)
//	tmebench -exp fig10scale rank strong-scaling sweep with torus comm model
//	tmebench -exp overlap    step time with/without long-range (Sec V.C)
//	tmebench -exp table2     cross-system comparison (Table 2)
//	tmebench -exp costmodel  Sec III.C cost model + strong-scaling curves
//	tmebench -exp grid64     64³ (L=2) projection (Sec VI.A)
//	tmebench -exp whatif     Sec VI.B design-space accelerations
//	tmebench -exp autotune   auto-tuner oracle: measured error/cost of every plan
//	tmebench -exp all        everything above
//
// By default experiments run at single-host ("quick") scale, which
// preserves all dimensionless parameters of the paper (see DESIGN.md);
// -full runs the paper-scale workloads (the Table 1 reference Ewald
// summation then takes tens of minutes and is cached under results/cache).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"tme4a/internal/expt"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig3a,fig3b,table1,shootout,fig4,fig4resume,fig9,fig9live,fig10,fig10scale,overlap,table2,costmodel,grid64,whatif,autotune,all")
	full := flag.Bool("full", false, "run paper-scale workloads (slow)")
	outDir := flag.String("out", "results", "output directory ('' = stdout only)")
	flag.Parse()

	runner := &runner{full: *full, outDir: *outDir}
	exps := []string{*exp}
	if *exp == "all" {
		exps = []string{"fig3a", "fig3b", "table1", "shootout", "fig4", "fig4resume", "fig9", "fig9live", "fig10", "fig10scale", "overlap", "table2", "costmodel", "grid64", "whatif", "autotune"}
	}
	for _, e := range exps {
		if err := runner.run(e); err != nil {
			fmt.Fprintf(os.Stderr, "tmebench: %s: %v\n", e, err)
			os.Exit(1)
		}
	}
}

type runner struct {
	full   bool
	outDir string
	hw     *expt.HWContext
}

func (r *runner) hwContext() *expt.HWContext {
	if r.hw == nil {
		r.hw = expt.NewHWContext()
	}
	return r.hw
}

// out returns a writer that tees to stdout and results/<name>.csv.
func (r *runner) out(name string) (io.Writer, func()) {
	if r.outDir == "" {
		return os.Stdout, func() {}
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "tmebench: %v (writing to stdout only)\n", err)
		return os.Stdout, func() {}
	}
	f, err := os.Create(filepath.Join(r.outDir, name))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmebench: %v (writing to stdout only)\n", err)
		return os.Stdout, func() {}
	}
	return io.MultiWriter(os.Stdout, f), func() { f.Close() }
}

func (r *runner) run(exp string) error {
	fmt.Printf("\n===== %s =====\n", exp)
	switch exp {
	case "fig3a":
		w, done := r.out("fig3a.csv")
		defer done()
		expt.RunFig3(2, 160, 8, w)
	case "fig3b":
		w, done := r.out("fig3b.csv")
		defer done()
		pts := expt.RunFig3(4, 400, 10, nil)
		fmt.Fprintf(w, "# Fig 3b: max |approx - exact|/g(0) over x in [0,10]\n")
		fmt.Fprintf(w, "M,max_error\n")
		for m := 1; m <= 4; m++ {
			fmt.Fprintf(w, "%d,%.3e\n", m, expt.MaxErr(pts, m))
		}
	case "table1":
		cfg := expt.QuickTable1()
		if r.full {
			cfg = expt.FullTable1()
		}
		w, done := r.out("table1.csv")
		defer done()
		expt.RunTable1(cfg, w)
	case "shootout":
		cfg := expt.QuickShootout()
		if r.full {
			cfg = expt.FullShootout()
		}
		w, done := r.out("shootout.csv")
		defer done()
		expt.RunShootout(cfg, w)
	case "fig4":
		cfg := expt.QuickFig4()
		if r.full {
			cfg = expt.FullFig4()
		}
		w, done := r.out("fig4.csv")
		defer done()
		expt.RunFig4(cfg, w)
	case "fig4resume":
		cfg := expt.QuickFig4Resume()
		w, done := r.out("fig4resume.txt")
		defer done()
		ckdir, err := os.MkdirTemp("", "tme-ckpt-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(ckdir)
		res, err := expt.RunFig4Resume(cfg, filepath.Join(ckdir, "clean"), filepath.Join(ckdir, "torn"), nil, w)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "final state hash %016x (resume points: clean %d, torn fallback %d)\n",
			res.FinalHash, res.ResumedFrom, res.TornResumeFrom)
	case "fig9":
		w, done := r.out("fig9.txt")
		defer done()
		r.hwContext().RunFig9(w)
	case "fig9live":
		cfg := expt.QuickFig9Live()
		if r.full {
			cfg = expt.FullFig9Live()
		}
		w, done := r.out("fig9live.txt")
		defer done()
		expt.RunFig9Live(cfg, w)
	case "fig10":
		w, done := r.out("fig10.csv")
		defer done()
		r.hwContext().RunFig10(w)
	case "fig10scale":
		cfg := expt.QuickFigScale()
		if r.full {
			cfg = expt.FullFigScale()
		}
		w, done := r.out("fig10scale.csv")
		defer done()
		if _, err := expt.RunFigScale(cfg, w); err != nil {
			return err
		}
	case "overlap":
		w, done := r.out("overlap.csv")
		defer done()
		r.hwContext().RunOverlap(w)
	case "table2":
		w, done := r.out("table2.csv")
		defer done()
		r.hwContext().RunTable2(w)
	case "costmodel":
		w, done := r.out("costmodel.csv")
		defer done()
		expt.RunCostModel(w)
	case "grid64":
		w, done := r.out("grid64.csv")
		defer done()
		r.hwContext().RunGrid64(w)
	case "whatif":
		w, done := r.out("whatif.csv")
		defer done()
		expt.RunWhatIf(r.hwContext(), w)
	case "autotune":
		w, done := r.out("autotune.csv")
		defer done()
		if _, _, err := expt.RunAutotune(expt.QuickAutotune(), w); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
