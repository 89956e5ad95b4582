package expt

import (
	"fmt"
	"io"

	"tme4a/internal/md"
	"tme4a/internal/tune"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// Fig4Config parameterizes the NVE stability experiment. The paper runs
// 200 ps of 98k-atom water; the quick configuration runs a shorter
// trajectory of a smaller box with the same integrator (velocity Verlet,
// 1 fs), SETTLE constraints, p = 6 and g_c = 8. The two observables —
// absence of systematic drift and the M-dependent total-energy offset —
// are visible at this scale.
type Fig4Config struct {
	WaterSide  int
	GridN      int
	Rc         float64
	Steps      int
	Ms         []int // TME Gaussian counts to compare with SPME
	Gc         int
	Seed       int64
	EquilSteps int
	ReportEach int
}

// QuickFig4 returns a ~6k-atom configuration usable on one core.
func QuickFig4() Fig4Config {
	return Fig4Config{
		WaterSide:  12, // 1,728 waters, 5,184 atoms
		GridN:      16,
		Rc:         1.2,
		Steps:      200,
		Ms:         []int{1, 2, 3},
		Gc:         8,
		Seed:       11,
		EquilSteps: 200,
		ReportEach: 10,
	}
}

// FullFig4 returns the larger configuration (4,096 waters, 2 ps).
func FullFig4() Fig4Config {
	c := QuickFig4()
	c.WaterSide = 16
	c.Steps = 2000
	return c
}

// Fig4Series is the total-energy trajectory of one method.
type Fig4Series struct {
	Label string
	Time  []float64 // ps
	Total []float64 // kJ/mol
}

// Drift returns the least-squares slope of total energy in kJ/mol/ps.
func (s Fig4Series) Drift() float64 {
	n := float64(len(s.Time))
	if n < 2 {
		return 0
	}
	var st, se, stt, ste float64
	for i := range s.Time {
		st += s.Time[i]
		se += s.Total[i]
		stt += s.Time[i] * s.Time[i]
		ste += s.Time[i] * s.Total[i]
	}
	return (n*ste - st*se) / (n*stt - st*st)
}

// Mean returns the mean total energy.
func (s Fig4Series) Mean() float64 {
	var m float64
	for _, e := range s.Total {
		m += e
	}
	return m / float64(len(s.Total))
}

// base builds the equilibrated initial state every series starts from.
func (cfg Fig4Config) base() *md.System {
	return thermalBox(cfg.WaterSide, cfg.Seed, cfg.EquilSteps, cfg.Rc)
}

// integrator returns the NVE integrator of one series: SPME for m = 0,
// TME with m Gaussians otherwise.
func (cfg Fig4Config) integrator(m int, box vec.Box) *md.Integrator {
	p := tune.Plan{Method: "spme", Rc: cfg.Rc, Grid: [3]int{cfg.GridN, cfg.GridN, cfg.GridN}, Order: tune.Order}
	if m > 0 {
		p.Method, p.Levels, p.M, p.Gc = "tme", 1, m, cfg.Gc
	}
	integ, err := p.NewIntegrator(box, dt)
	if err != nil {
		panic(err)
	}
	return integ
}

// RunFig4 runs NVE trajectories with SPME and with TME (M ∈ cfg.Ms) from
// identical initial conditions and returns the total-energy series.
func RunFig4(cfg Fig4Config, w io.Writer) []Fig4Series {
	base := cfg.base()

	var out []Fig4Series
	run := func(label string, m int) {
		sys := cloneSystem(base)
		integ := cfg.integrator(m, sys.Box)
		s := Fig4Series{Label: label}
		for step := 1; step <= cfg.Steps; step++ {
			e := integ.Step(sys)
			if step%cfg.ReportEach == 0 {
				s.Time = append(s.Time, float64(step)*dt)
				s.Total = append(s.Total, e.Total())
			}
		}
		out = append(out, s)
		logf(w, "# %s: mean E = %.2f kJ/mol, drift = %.3f kJ/mol/ps\n",
			label, s.Mean(), s.Drift())
	}

	run("SPME", 0)
	for _, m := range cfg.Ms {
		run(sprintfLabel(m), m)
	}

	if w != nil {
		logf(w, "time_ps")
		for _, s := range out {
			logf(w, ",%s", s.Label)
		}
		logf(w, "\n")
		for i := range out[0].Time {
			logf(w, "%.3f", out[0].Time[i])
			for _, s := range out {
				logf(w, ",%.4f", s.Total[i])
			}
			logf(w, "\n")
		}
	}
	return out
}

func sprintfLabel(m int) string {
	return fmt.Sprintf("TME_M%d", m)
}

func cloneSystem(src *md.System) *md.System {
	dst := *src
	dst.Pos = append([]vec.V(nil), src.Pos...)
	dst.Vel = append([]vec.V(nil), src.Vel...)
	dst.Frc = append([]vec.V(nil), src.Frc...)
	return &dst
}

// dt is the time step of every experiment's trajectories, in ps.
const dt = 0.001

// thermalBox returns an experiment's initial state: water.Fresh's box of
// side³ molecules thermalised for equil steps at 300 K with cutoff
// min(0.9 nm, rc), and velocities drawn at 300 K.
func thermalBox(side int, seed int64, equil int, rc float64) *md.System {
	sys := water.Fresh(side, seed, equil, dt, 300, rc)
	water.Draw(sys, 300, seed)
	return sys
}
