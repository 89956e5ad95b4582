// Package solver is the registry of long-range electrostatics solvers.
//
// Every mesh method in this repository — SPME, the paper's TME, and the
// B-spline MSM comparator — computes the same thing: the mesh + self part
// of the periodic Coulomb energy with forces accumulated into a caller
// buffer. This package names that contract (the Molly.jl/AtomsCalculators
// "calculator" idiom: one energy_forces entry point per interchangeable
// method) and lets the implementations register constructors under their
// method names, so callers select a solver per run from a string without
// importing — or even knowing — the concrete packages.
//
// The implementations register themselves from init functions
// (internal/spme, internal/core, internal/msm); a caller that wants the
// full registry imports them for effect:
//
//	import (
//	    _ "tme4a/internal/core"
//	    _ "tme4a/internal/msm"
//	    _ "tme4a/internal/spme"
//	)
//	mesh, err := solver.New("tme", solver.Config{...}, box)
//
// Each implementation registers its Config → Params mapping beside its
// constructor; Params.Validate is its check, so Validate and New return
// errors, never panic, and a CLI can turn a bad flag into a usage message.
package solver

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tme4a/internal/md"
	"tme4a/internal/obs"
	"tme4a/internal/vec"
)

// Config is the superset of the registered solvers' parameters; each
// constructor maps the subset it understands onto its package Params and
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
// hook every registered solver inherits from spme.Cycle. Resume hooks live
// at the md.ForceField layer — solvers are stateless between steps by
// design, so checkpoint/restart needs nothing from them (DESIGN.md §7.5).
type Solver interface {
	md.MeshSolver
	// Describe returns a one-line human-readable description of the
	// configured method and its parameters.
	Describe() string
	// SetObs propagates a stage recorder to the solver's meshers, pools
	// and sub-solvers (nil detaches).
	SetObs(*obs.Recorder)
}

// entry is one registered method: its parameter check and constructor
// plus the one-line doc the listing endpoints render.
type entry struct {
	doc      string
	validate func(Config) error
	build    func(Config, vec.Box) Solver
}

var (
	regMu    sync.Mutex
	registry = map[string]entry{}
)

// Register adds a named method to the registry: a one-line description,
// the mapping of Config onto the method's own parameters — whose Validate
// is the method's check — and the constructor over those parameters, which
// the registry only calls with parameters that passed. It is intended for
// package init functions; registering an empty name, a nil function or a
// duplicate name is a programming error and panics.
func Register[P interface{ Validate() error }, S Solver](name, doc string, params func(Config) P, build func(P, vec.Box) S) {
	if name == "" || params == nil || build == nil {
		panic("solver: Register needs a non-empty name, a parameter mapping and a constructor")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("solver: method %q registered twice", name))
	}
	registry[name] = entry{
		doc:      doc,
		validate: func(cfg Config) error { return params(cfg).Validate() },
		build:    func(cfg Config, box vec.Box) Solver { return build(params(cfg), box) },
	}
}

// lookup returns the named method's entry and what its check says of cfg;
// an unknown name is an error that lists the registered ones.
func lookup(name string, cfg Config) (entry, error) {
	regMu.Lock()
	e, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return e, fmt.Errorf("solver: unknown method %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	return e, e.validate(cfg)
}

// Validate reports what New would reject, without constructing anything.
func Validate(name string, cfg Config) error {
	_, err := lookup(name, cfg)
	return err
}

// New constructs the named solver.
func New(name string, cfg Config, box vec.Box) (Solver, error) {
	e, err := lookup(name, cfg)
	if err != nil {
		return nil, err
	}
	return e.build(cfg, box), nil
}

// Names returns the registered method names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for name := range registry { //tmevet:ignore detmap -- key collection, sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Method is one row of the registry listing.
type Method struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

// Methods returns every registered method with its description, sorted by
// name — the order is deterministic, never the map's iteration order, so
// API listings and usage strings built on it are byte-stable across runs.
func Methods() []Method {
	names := Names()
	regMu.Lock()
	defer regMu.Unlock()
	ms := make([]Method, len(names))
	for i, name := range names {
		ms[i] = Method{Name: name, Doc: registry[name].doc}
	}
	return ms
}

// Describe renders the registry listing, one "name: doc" line per method
// in sorted name order. Repeated calls return identical strings.
func Describe() string {
	var b strings.Builder
	for _, m := range Methods() {
		fmt.Fprintf(&b, "%s: %s\n", m.Name, m.Doc)
	}
	return b.String()
}
