package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Program is the whole-module view the interprocedural checks (schedown,
// goleak, noalloc) share: every function declaration the loader has
// parsed, indexed by its canonical *types.Func, plus a static call graph
// over them. It is built once per Run, after all pattern packages (and the
// module-internal imports their type-checking pulled in) are loaded.
//
// The graph is deliberately conservative and syntactic:
//
//   - Only statically resolvable calls become edges: package-level
//     functions, qualified pkg.Func calls, and concrete method calls.
//     Interface dispatch and function values produce no edge — the runtime
//     gates (race detector, AllocsPerRun) remain the backstop for those.
//   - The one exception is a par loop's body: a named function or method
//     expression passed to a par.* call is an edge at that call. par runs
//     it before returning, on the caller's goroutine or on workers it joins,
//     so for every check it is a callee of the caller.
//   - Calls inside a `go` statement's subtree are NOT edges of the
//     enclosing function: they run on a different goroutine, which is the
//     distinction the ownership check is built on. Each spawn is recorded
//     separately in Spawns for the goleak check.
//   - Calls inside ordinary closures (deferred, called inline, or passed
//     to par.ForRange) are attributed to the enclosing declaration.
type Program struct {
	pkgs  []*Package // every loaded package, by directory
	nodes map[*types.Func]*FuncNode
	reach map[*types.Func]map[*types.Func]bool // memoized sync-reachability
	owned map[*types.Var]*ownerInfo            // //tme:owner index, all packages

	// used and ifaces are deadexport's reference index, built on
	// first use.
	used   map[*types.Func]bool
	ifaces map[string][]*types.Interface
}

// FuncNode is one declared function or method in the module.
type FuncNode struct {
	Fn   *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl

	// Calls are the statically resolved same-goroutine call edges, in
	// source order.
	Calls []Edge
	// Spawns are the `go` statements in the declaration's body (including
	// those nested in closures), in source order.
	Spawns []*ast.GoStmt
}

// Edge is one static call edge.
type Edge struct {
	Callee *types.Func
	Pos    token.Pos
}

// ownerInfo records one //tme:owner annotation resolution.
type ownerInfo struct {
	owner *types.Func // nil when the annotation failed to resolve
	name  string      // the annotated owner string
	pos   token.Pos   // annotation position (for unresolved-owner diags)
	pkg   *Package    // declaring package
}

// NewProgram indexes every package the loader has materialized.
func NewProgram(l *Loader) *Program {
	prog := &Program{
		pkgs:  l.Packages(),
		nodes: map[*types.Func]*FuncNode{},
		reach: map[*types.Func]map[*types.Func]bool{},
	}
	for _, p := range prog.pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: origin(fn), Pkg: p, Decl: fd}
				collectEdges(p, fd.Body, node)
				prog.nodes[node.Fn] = node
			}
		}
	}
	return prog
}

// collectEdges walks a function body recording call edges and spawns.
// `go` subtrees contribute spawns but no edges (they run elsewhere).
func collectEdges(p *Package, body ast.Node, node *FuncNode) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			node.Spawns = append(node.Spawns, n)
			return false
		case *ast.CallExpr:
			if callee := p.staticFunc(n.Fun); callee != nil {
				node.Calls = append(node.Calls, Edge{Callee: callee, Pos: n.Pos()})
			}
			if p.isParLoop(n) {
				for _, arg := range n.Args {
					if body := p.staticFunc(arg); body != nil {
						node.Calls = append(node.Calls, Edge{Callee: body, Pos: n.Pos()})
					}
				}
			}
		}
		return true
	})
}

// origin canonicalizes generic instantiations to their declared function.
func origin(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// staticFunc resolves an expression that names one module-or-stdlib
// function statically — a declared function, pkg.Func, a concrete method
// value or a method expression. As a call's Fun it gives the callee; it is
// nil for builtins, conversions, interface dispatch and function values.
func (p *Package) staticFunc(e ast.Expr) *types.Func {
	switch fun := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := p.useOf(fun).(*types.Func); ok {
			return origin(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			if sel.Kind() == types.FieldVal {
				return nil
			}
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return nil // dynamic dispatch
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return origin(fn)
			}
			return nil
		}
		// No selection: a package-qualified reference (pkg.Func).
		if fn, ok := p.useOf(fun.Sel).(*types.Func); ok {
			return origin(fn)
		}
	}
	return nil
}

// Node returns the declaration node for fn, or nil for functions without a
// loaded body (stdlib, interface methods).
func (prog *Program) Node(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return prog.nodes[origin(fn)]
}

// Reachable returns the set of module functions reachable from root over
// same-goroutine call edges, including root itself. Memoized per root.
func (prog *Program) Reachable(root *types.Func) map[*types.Func]bool {
	root = origin(root)
	if set, ok := prog.reach[root]; ok {
		return set
	}
	set := map[*types.Func]bool{root: true}
	queue := []*types.Func{root}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := prog.nodes[fn]
		if node == nil {
			continue
		}
		for _, e := range node.Calls {
			if !set[e.Callee] {
				set[e.Callee] = true
				queue = append(queue, e.Callee)
			}
		}
	}
	prog.reach[root] = set
	return set
}

// displayName renders fn for diagnostics: Type.Method or Func, prefixed
// with the package name when it differs from the reporting package.
func displayName(fn *types.Func, from *Package) string {
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv()
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil && from != nil && fn.Pkg() != from.Pkg {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// isParPackage reports whether a package path is the par worker-pool
// package (or its fixture stub): the sanctioned goroutine dispatch layer,
// trusted as a leaf by noalloc.
func isParPackage(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return pkg.Path() == "par" || strings.HasSuffix(pkg.Path(), "/par")
}
