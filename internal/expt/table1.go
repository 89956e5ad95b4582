package expt

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"

	"tme4a/internal/ewald"
	"tme4a/internal/md"
	"tme4a/internal/tune"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// Table1Config parameterizes the Table 1 reproduction. The quick
// configuration shrinks the water box while preserving every dimensionless
// parameter of the paper (α·r_c from ewald-rtol = 1e-4, grid spacing
// h ≈ 0.311 nm via N ∝ box, p = 6, the g_c and M sweeps, L = 1).
type Table1Config struct {
	WaterSide  int     // waters per axis (lattice side); paper: 32
	GridN      int     // finest grid per axis; paper: 32
	RefTol     float64 // reference Ewald error-factor tolerance
	Rcs        []float64
	Gcs        []int
	Ms         []int
	EquilSteps int
	Seed       int64
	CacheDir   string
}

// QuickTable1 returns the single-host configuration: 4,096 waters
// (12,288 atoms) with a 16³ grid, h = 0.311 nm as in the paper.
func QuickTable1() Table1Config {
	return Table1Config{
		WaterSide:  16,
		GridN:      16,
		RefTol:     1e-12,
		Rcs:        []float64{1.0, 1.25, 1.5},
		Gcs:        []int{4, 8, 12},
		Ms:         []int{1, 2, 3, 4},
		EquilSteps: 300,
		Seed:       7,
		CacheDir:   "results/cache",
	}
}

// FullTable1 returns the paper-scale configuration: 32,768 waters
// (98,304 atoms; the paper used 32,773) on the 32³ grid. The reference
// Ewald summation takes tens of minutes on one core; results are cached.
func FullTable1() Table1Config {
	c := QuickTable1()
	c.WaterSide = 32
	c.GridN = 32
	c.RefTol = 1e-10
	c.EquilSteps = 150
	return c
}

// Table1Row is one measured entry of Table 1.
type Table1Row struct {
	Method string // "SPME" or "TME"
	Rc     float64
	Gc, M  int
	Err    float64 // relative force error vs the Ewald reference
}

// RunTable1 builds the water system, computes the double-precision Ewald
// reference forces (cached), and measures the relative force error of
// SPME and of TME over the g_c × M sweep for each cutoff, each through
// its tune.Plan like every frontier candidate. Each cutoff's rows are
// written to w once they are measured.
func RunTable1(cfg Table1Config, w io.Writer) []Table1Row {
	logf(w, "# Table 1: %d TIP3P waters, grid %d^3\n",
		cfg.WaterSide*cfg.WaterSide*cfg.WaterSide, cfg.GridN)
	sys := buildWater(cfg, w)
	n := [3]int{cfg.GridN, cfg.GridN, cfg.GridN}
	logf(w, "# box %.4f nm, h %.4f nm, %d atoms\n",
		sys.Box.L[0], sys.Box.L[0]/float64(cfg.GridN), sys.N())

	_, fRef := referenceForces(cfg, sys, w)

	var rows []Table1Row
	logf(w, "method,rc,gc,M,relative_force_error\n")
	for _, rc := range cfg.Rcs {
		if rc >= sys.Box.L[0]/2 {
			logf(w, "# skipping rc=%.2f (exceeds half box)\n", rc)
			continue
		}
		// SPME, then the TME g_c × M sweep, all at tune.Order and L = 1.
		plans := []tune.Plan{{Method: "spme", Rc: rc, Grid: n, Order: tune.Order}}
		for _, gc := range cfg.Gcs {
			for _, m := range cfg.Ms {
				plans = append(plans, tune.Plan{Method: "tme", Rc: rc, Grid: n, Gc: gc, M: m, Levels: 1, Order: tune.Order})
			}
		}
		errs, err := planErrors(sys, fRef, plans)
		if err != nil {
			panic(fmt.Sprintf("table1: %v", err))
		}
		for i, p := range plans {
			rows = append(rows, Table1Row{Method: strings.ToUpper(p.Method), Rc: rc, Gc: p.Gc, M: p.M, Err: errs[i]})
			if p.Method == "spme" {
				logf(w, "SPME,%.2f,,,%.3e\n", rc, errs[i])
			} else {
				logf(w, "TME,%.2f,%d,%d,%.3e\n", rc, p.Gc, p.M, errs[i])
			}
		}
	}
	return rows
}

// planErrors measures each plan's relative force error against the
// reference fRef: the erfc short range at the plan's cutoff, computed once
// per distinct cutoff, plus the plan's mesh solve through LongRange.
func planErrors(sys *md.System, fRef []vec.V, plans []tune.Plan) ([]float64, error) {
	fSR := map[float64][]vec.V{}
	errs := make([]float64, len(plans))
	for i, p := range plans {
		if fSR[p.Rc] == nil {
			fSR[p.Rc] = make([]vec.V, sys.N())
			ewald.RealSpace(sys.Box, sys.Pos, sys.Q, p.Alpha(), p.Rc, nil, fSR[p.Rc])
		}
		mesh, err := p.NewSolver(sys.Box)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.String(), err)
		}
		f := slices.Clone(fSR[p.Rc])
		mesh.LongRange(sys.Pos, sys.Q, f)
		errs[i] = relForceError(f, fRef)
	}
	return errs, nil
}

// buildWater constructs and lightly equilibrates the water box.
func buildWater(cfg Table1Config, w io.Writer) *md.System {
	start := time.Now()
	sys := water.Fresh(cfg.WaterSide, cfg.Seed, cfg.EquilSteps, dt, 300, 0)
	if cfg.EquilSteps > 0 {
		logf(w, "# equilibrated %d steps in %.1fs (T=%.0f K)\n",
			cfg.EquilSteps, time.Since(start).Seconds(), sys.Temperature())
	}
	return sys
}

// referenceForces returns the double-precision Ewald reference, using the
// on-disk cache when available.
//
// Note the exclusion convention: Table 1 is a pure electrostatics
// benchmark — "the Coulomb forces for 32,773 TIP3P water molecules" — so
// the full Coulomb interaction among ALL point charges is evaluated, with
// no intramolecular exclusions (this is what the paper's standalone C++
// Ewald/SPME/TME programs compute, and it is what makes the published
// error magnitudes reproducible: the intramolecular terms dominate the
// Σ|F_ref|² denominator).
func referenceForces(cfg Table1Config, sys *md.System, w io.Writer) (float64, []vec.V) {
	key := fmt.Sprintf("table1-ref-noexcl-n%d-g%d-s%d-e%d-t%g",
		cfg.WaterSide, cfg.GridN, cfg.Seed, cfg.EquilSteps, cfg.RefTol)
	if c, ok := loadCache(cfg.CacheDir, key, sys.Pos); ok {
		logf(w, "# reference forces loaded from cache\n")
		return c.Energy, c.Forces
	}
	start := time.Now()
	e, f := ewald.Reference(sys.Box, sys.Pos, sys.Q, nil, cfg.RefTol)
	logf(w, "# reference Ewald computed in %.1fs (E=%.3f kJ/mol)\n",
		time.Since(start).Seconds(), e)
	if err := storeCache(cfg.CacheDir, key, &cachedForces{Pos: sys.Pos, Energy: e, Forces: f}); err != nil {
		logf(w, "# cache write failed: %v\n", err)
	}
	return e, f
}

func relForceError(f, ref []vec.V) float64 {
	var num, den float64
	for i := range f {
		num += f[i].Sub(ref[i]).Norm2()
		den += ref[i].Norm2()
	}
	return math.Sqrt(num / den)
}

func logf(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
