package expt

import (
	"io"
	"runtime"

	"tme4a/internal/obs"
	"tme4a/internal/tune"
)

// Fig9LiveConfig parameterizes the live (measured) counterpart of Fig 9:
// instead of replaying the hardware cost model, it runs the software TME
// pipeline with the internal/obs stage recorder attached and charts where
// the step time actually goes — charge assignment, restriction, separable
// convolutions, top-level SPME (with the FFTs nested inside), prolongation,
// back interpolation, short-range, constraints and integration.
type Fig9LiveConfig struct {
	WaterSide  int     // waters per box edge
	GridN      int     // finest TME grid (GridN³); one middle level
	M          int     // Gaussians per shell
	Gc         int     // grid-kernel cutoff
	Rc         float64 // short-range cutoff (nm)
	Skin       float64 // Verlet buffer (nm)
	Seed       int64
	EquilSteps int // thermostatted pre-equilibration steps
	Warmup     int // instrumented-but-discarded steps (fills pools and lists)
	Steps      int // measured steps
}

// QuickFig9Live returns a ~1.5k-atom configuration at the paper's operating
// point (p = 6, L = 1, g_c = 8) that runs in seconds on one core.
func QuickFig9Live() Fig9LiveConfig {
	return Fig9LiveConfig{
		WaterSide:  8, // 512 waters, 1,536 atoms
		GridN:      16,
		M:          3,
		Gc:         8,
		Rc:         0.9,
		Skin:       0.1,
		Seed:       17,
		EquilSteps: 50,
		Warmup:     10,
		Steps:      100,
	}
}

// FullFig9Live scales the measured run up (4,096 waters, 32³ grid).
func FullFig9Live() Fig9LiveConfig {
	c := QuickFig9Live()
	c.WaterSide = 16
	c.GridN = 32
	c.Steps = 200
	return c
}

// RunFig9Live builds a water box, attaches a stage recorder to the TME MD
// step, discards cfg.Warmup steps (so pool fills and list builds are not
// charged to the steady state), measures cfg.Steps steps, renders the
// Fig 9-style chart to w and returns the machine-readable report.
func RunFig9Live(cfg Fig9LiveConfig, w io.Writer) obs.Report {
	sys := thermalBox(cfg.WaterSide, cfg.Seed, cfg.EquilSteps, cfg.Rc)
	integ, err := tune.Plan{
		Method: "tme", Rc: cfg.Rc, Skin: cfg.Skin, Grid: [3]int{cfg.GridN, cfg.GridN, cfg.GridN},
		Gc: cfg.Gc, M: cfg.M, Levels: 1, Order: tune.Order,
	}.NewIntegrator(sys.Box, dt)
	if err != nil {
		panic(err)
	}

	rec := obs.New()
	integ.SetObs(rec)
	for step := 0; step < cfg.Warmup; step++ {
		integ.Step(sys)
	}
	rec.Reset()
	for step := 0; step < cfg.Steps; step++ {
		integ.Step(sys)
	}

	rep := rec.Report("fig9live", sys.N(), runtime.GOMAXPROCS(0))
	if w != nil {
		rep.Render(w, 60)
	}
	return rep
}
