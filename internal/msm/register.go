package msm

import "tme4a/internal/solver"

// fromConfig maps the registry's superset config onto this package's Params,
// ignoring the TME-only fields (M, Kernel).
func fromConfig(cfg solver.Config) Params {
	return Params{
		Alpha:  cfg.Alpha,
		Rc:     cfg.Rc,
		Order:  cfg.Order,
		N:      cfg.N,
		Levels: cfg.Levels,
		Gc:     cfg.Gc,
	}
}

// init registers B-spline MSM under "msm".
func init() {
	solver.Register("msm",
		"B-spline multilevel summation: real-space level hierarchy comparator, SPME top solve",
		fromConfig, New)
}
