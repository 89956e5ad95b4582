// Package lint implements tmevet, the project's static analyzer. It
// enforces, at review time, invariants the runtime tests only see on the
// paths they execute: results that depend on no wall clock and no map
// order, allocation-free steady-state hot paths, joinable goroutines,
// checked errors on durability and wire paths, single-goroutine
// ownership of the serve tier's engine state, and shipped code that a
// binary, not only a test, references.
//
// The analyzer is stdlib-only (go/parser + go/types with the from-source
// importer) so it runs on a bare checkout. Each check lives in its own
// file and is individually suppressible with a line-scoped
// "//tmevet:ignore <check>[,<check>...] -- rationale" comment on the
// offending line or the line above; a directive naming a check that is not
// registered is itself reported. The noalloc check is opt-in per function
// via the "//tme:noalloc" doc directive.
//
// See DESIGN.md §7.3 for the check catalog, the defect each check is
// known to catch that the tests miss, and the suppression policy.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Message)
}

// Check is one named invariant detector.
type Check struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// checks is the registry, ordered for stable output.
var checks = []*Check{
	clockCheck,
	deadexportCheck,
	detmapCheck,
	errdropCheck,
	goleakCheck,
	noallocCheck,
	schedownCheck,
}

// unknownCheck names the findings on //tmevet:ignore directives that name
// no registered check. It is not itself a check: those findings cannot be
// suppressed.
const unknownCheck = "ignore"

// Checks returns the registered checks in name order.
func Checks() []*Check { return checks }

// ByName returns the named check, or nil.
func ByName(name string) *Check {
	for _, c := range checks {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// numericPkgs are the module-relative directories whose floating-point
// results must be bitwise reproducible: the mesh pipeline, the short-range
// stack, and every force/integration module. detmap applies only here;
// noalloc and schedown are annotation driven and run everywhere.
var numericPkgs = map[string]bool{
	"internal/grid":       true,
	"internal/pmesh":      true,
	"internal/spme":       true,
	"internal/core":       true,
	"internal/msm":        true,
	"internal/ewald":      true,
	"internal/nonbond":    true,
	"internal/celllist":   true,
	"internal/md":         true,
	"internal/fft":        true,
	"internal/bonded":     true,
	"internal/constraint": true,
	"internal/quad":       true,
	"internal/solver":     true,
	// The serve tier holds job tables and renders listings; a map-range
	// leak there would make job ordering, traces or API output vary
	// between runs, so it gets the same determinism checks as the
	// numeric core.
	"internal/serve": true,
	// The rank-decomposed engine and its halo-exchange layer must be
	// bitwise identical to the serial path at any rank count, so a
	// nondeterministic map range anywhere in them is a trajectory
	// divergence.
	"internal/dist": true,
	"internal/rank": true,
	// The auto-tuner is a pure cost/error model: its plans feed config
	// hashes and the retune path, so any map-range or clock
	// nondeterminism in it would split trajectories between bitwise-equal
	// runs. Measuring code lives in internal/expt, outside the clock check.
	"internal/tune": true,
}

// clockExempt are the internal packages where wall-clock reads are the
// point (experiment harnesses time themselves) or meaningless (the
// analyzer).
var clockExempt = map[string]bool{
	"internal/expt": true,
	"internal/lint": true,
}

// errdropPkgs are the durability and wire paths (ISSUE 8): the checkpoint
// store, whose dropped write error IS a lost checkpoint, and the serve
// tier, whose persistence protocol and HTTP encoding sit between the
// engine and its clients.
var errdropPkgs = map[string]bool{
	"internal/ckpt":  true,
	"internal/serve": true,
}

// goleakScope covers the packages that launch goroutines as part of the
// product (the service tier, the worker pool, the rank engine, and the
// commands): every spawn there must be joinable.
func goleakScope(rel string) bool {
	return rel == "internal/par" || rel == "internal/serve" ||
		strings.HasPrefix(rel, "internal/serve/") ||
		rel == "internal/rank" ||
		rel == "cmd" || strings.HasPrefix(rel, "cmd/")
}

const fixturePrefix = "internal/lint/testdata/src/"

// checksFor maps a module-relative package directory to the checks that
// apply to it. Golden fixture packages select the single check named by
// their directory, so each fixture exercises exactly its own check.
// deadexport applies only on a whole-module run: a partial one does not
// load every reference.
func checksFor(rel string, whole bool) []*Check {
	if rest, ok := strings.CutPrefix(rel, fixturePrefix); ok {
		name, _, _ := strings.Cut(rest, "/")
		if c := ByName(name); c != nil {
			return []*Check{c}
		}
		return nil // support packages for fixtures, e.g. the par stub
	}
	if strings.Contains(rel, "testdata") {
		return nil
	}
	var cs []*Check
	if numericPkgs[rel] {
		cs = append(cs, detmapCheck)
	}
	if errdropPkgs[rel] {
		cs = append(cs, errdropCheck)
	}
	if goleakScope(rel) {
		cs = append(cs, goleakCheck)
	}
	if strings.HasPrefix(rel, "internal/") && !clockExempt[rel] {
		cs = append(cs, clockCheck)
	}
	if whole {
		cs = append(cs, deadexportCheck)
	}
	// Annotation-driven checks run everywhere: they only fire on
	// //tme:noalloc and //tme:owner declarations.
	cs = append(cs, noallocCheck, schedownCheck)
	return cs
}

// Run loads the packages matching patterns (relative to the module root)
// and returns every unsuppressed diagnostic, sorted by position. Type
// errors are reported as "typecheck" diagnostics: the analyzer refuses to
// pass silently on code it could not fully resolve. Ignore directives that
// name an unregistered check are reported too, so a renamed or folded
// check cannot leave a dead suppression behind.
func Run(root string, patterns []string) ([]Diagnostic, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	// Phase 1: load every pattern package (type-checking pulls in the
	// module-internal imports transitively), so the program-wide call
	// graph below sees the whole module.
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		p, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	// Phase 2: build the interprocedural view and share it with every
	// loaded package (imports included, so fixture support packages get
	// it too).
	prog := NewProgram(l)
	for _, p := range l.Packages() {
		p.Prog = prog
	}
	// Phase 3: run the checks per pattern package.
	whole := slices.Contains(patterns, "./...")
	var diags []Diagnostic
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			pos := token.Position{Filename: p.Dir}
			if te, ok := terr.(types.Error); ok {
				pos = te.Fset.Position(te.Pos)
			}
			diags = append(diags, Diagnostic{Pos: pos, Check: "typecheck", Message: terr.Error()})
		}
		diags = append(diags, p.unknownIgnores...)
		for _, c := range checksFor(p.Rel, whole) {
			for _, d := range c.Run(p) {
				if !p.suppressed(d.Check, d.Pos) {
					diags = append(diags, d)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// diag builds a Diagnostic at a node position.
func (p *Package) diag(pos token.Pos, check, format string, args ...interface{}) Diagnostic {
	return Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	}
}

// useOf resolves an identifier to its object via Uses then Defs.
func (p *Package) useOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// pkgNameOf returns the imported package a selector base refers to, or
// nil if the base is not a package identifier.
func (p *Package) pkgNameOf(expr ast.Expr) *types.Package {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := p.useOf(id).(*types.PkgName)
	if !ok {
		return nil
	}
	return pn.Imported()
}

// parFuncs are the par loops whose named body argument the call graph
// enters as a callee of the loop's caller.
var parFuncs = map[string]bool{
	"For":           true,
	"ForRange":      true,
	"ForRangeGrain": true,
}

// isParLoop reports whether call invokes one of the par package's loops.
// The par package is matched by import-path suffix so the testdata stub
// package qualifies too.
func (p *Package) isParLoop(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && isParPackage(p.pkgNameOf(sel.X)) && parFuncs[sel.Sel.Name]
}
