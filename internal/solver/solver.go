// Package solver is the table of long-range electrostatics methods.
//
// Every mesh method in this repository — SPME, the paper's TME, and the
// B-spline MSM comparator — computes the same thing: the mesh + self part
// of the periodic Coulomb energy with forces accumulated into a caller
// buffer. This package names that contract (the Molly.jl/AtomsCalculators
// "calculator" idiom: one energy_forces entry point per interchangeable
// method) and constructs any of the three from its method name, so callers
// select a solver per run from a string without importing the concrete
// packages:
//
//	mesh, err := solver.New("tme", solver.Config{...}, box)
//
// The set is closed: the paper compares exactly these methods, and the
// tuner and the frontier sweep name them one by one. One static table,
// sorted by name, holds each method's doc line, Config → Params mapping and
// constructor; Params.Validate is its check, so Validate and New return
// errors, never panic, and a CLI can turn a bad flag into a usage message.
package solver

import (
	"fmt"
	"strings"

	"tme4a/internal/core"
	"tme4a/internal/md"
	"tme4a/internal/msm"
	"tme4a/internal/obs"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
)

// Config is the superset of the methods' parameters; each row of the table
// maps the subset its method understands onto the package Params and
// validates it there. Field semantics follow core.Params.
type Config struct {
	Alpha  float64 // Ewald splitting parameter (nm⁻¹)
	Rc     float64 // short-range cutoff (nm)
	Order  int     // B-spline order p (even)
	N      [3]int  // finest grid dimensions
	Levels int     // middle-range levels (TME/MSM)
	M      int     // Gaussians per middle-range shell (TME)
	Gc     int     // grid-kernel cutoff (TME/MSM)
	Kernel string  // middle-range kernel family (TME): "", "gauss", "useries"
}

// Solver extends the md.MeshSolver calculator contract with
// self-description, so a run header or results table can state exactly
// which method and parameters produced it, and with the per-stage timing
// hook every method inherits from spme.Cycle. Resume hooks live at the
// md.ForceField layer — solvers are stateless between steps by design, so
// checkpoint/restart needs nothing from them (DESIGN.md §7.5).
type Solver interface {
	md.MeshSolver
	// Describe returns a one-line human-readable description of the
	// configured method and its parameters.
	Describe() string
	// SetObs propagates a stage recorder to the solver's meshers, pools
	// and sub-solvers (nil detaches).
	SetObs(*obs.Recorder)
}

// method is one row of the table: the name, the one-line doc the listing
// endpoints render, the method's check and its constructor, which is only
// called with a Config that passed the check.
type method struct {
	name, doc string
	validate  func(Config) error
	build     func(Config, vec.Box) Solver
}

// row types a method's Config → Params mapping and constructor into a
// table row; the Params' Validate is the row's check.
func row[P interface{ Validate() error }, S Solver](name, doc string, params func(Config) P, build func(P, vec.Box) S) method {
	return method{
		name:     name,
		doc:      doc,
		validate: func(cfg Config) error { return params(cfg).Validate() },
		build:    func(cfg Config, box vec.Box) Solver { return build(params(cfg), box) },
	}
}

// methods is the table, sorted by name.
var methods = []method{
	row("msm", "B-spline multilevel summation: real-space level hierarchy comparator, SPME top solve",
		func(c Config) msm.Params {
			return msm.Params{Alpha: c.Alpha, Rc: c.Rc, Order: c.Order, N: c.N, Levels: c.Levels, Gc: c.Gc}
		}, msm.New),
	row("spme", "smooth particle-mesh Ewald: B-spline charge assignment, single FFT grid solve",
		func(c Config) spme.Params {
			return spme.Params{Alpha: c.Alpha, Rc: c.Rc, Order: c.Order, N: c.N}
		}, spme.New),
	row("tme", "tensor-structured multilevel Ewald (the paper's method): separable Gaussian-sum or u-series middle-range kernels over a level hierarchy, SPME top solve",
		func(c Config) core.Params {
			return core.Params{Alpha: c.Alpha, Rc: c.Rc, Order: c.Order, N: c.N,
				Levels: c.Levels, M: c.M, Gc: c.Gc, Kernel: core.KernelFamily(c.Kernel)}
		}, core.New),
}

// lookup returns the named method's row and what its check says of cfg;
// an unknown name is an error that lists the known ones.
func lookup(name string, cfg Config) (method, error) {
	for _, m := range methods {
		if m.name == name {
			return m, m.validate(cfg)
		}
	}
	return method{}, fmt.Errorf("solver: unknown method %q (registered: %s)", name, strings.Join(Names(), ", "))
}

// Validate reports what New would reject, without constructing anything.
func Validate(name string, cfg Config) error {
	_, err := lookup(name, cfg)
	return err
}

// New constructs the named solver.
func New(name string, cfg Config, box vec.Box) (Solver, error) {
	m, err := lookup(name, cfg)
	if err != nil {
		return nil, err
	}
	return m.build(cfg, box), nil
}

// Names returns the method names, sorted.
func Names() []string {
	names := make([]string, len(methods))
	for i, m := range methods {
		names[i] = m.name
	}
	return names
}

// Method is one row of the method listing.
type Method struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

// Methods returns every method with its description, sorted by name, so
// API listings and usage strings built on it are byte-stable across runs.
func Methods() []Method {
	ms := make([]Method, len(methods))
	for i, m := range methods {
		ms[i] = Method{Name: m.name, Doc: m.doc}
	}
	return ms
}
