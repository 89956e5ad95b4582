package spme

import "tme4a/internal/solver"

// fromConfig maps the registry's superset config onto this package's Params,
// ignoring the TME fields (Levels, M, Gc, Kernel).
func fromConfig(cfg solver.Config) Params {
	return Params{Alpha: cfg.Alpha, Rc: cfg.Rc, Order: cfg.Order, N: cfg.N}
}

// init registers SPME under "spme".
func init() {
	solver.Register("spme",
		"smooth particle-mesh Ewald: B-spline charge assignment, single FFT grid solve",
		fromConfig, New)
}
