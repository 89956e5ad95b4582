package core

import "tme4a/internal/solver"

// fromConfig maps the registry's superset config onto this package's Params.
func fromConfig(cfg solver.Config) Params {
	return Params{
		Alpha:  cfg.Alpha,
		Rc:     cfg.Rc,
		Order:  cfg.Order,
		N:      cfg.N,
		Levels: cfg.Levels,
		M:      cfg.M,
		Gc:     cfg.Gc,
		Kernel: KernelFamily(cfg.Kernel),
	}
}

// init registers TME under "tme" so importing this package for effect is
// enough to select it by name through the solver registry.
func init() {
	solver.Register("tme",
		"tensor-structured multilevel Ewald (the paper's method): separable Gaussian-sum or u-series middle-range kernels over a level hierarchy, SPME top solve",
		fromConfig, New)
}
