package lint

import (
	"go/ast"
	"go/types"
)

// goleak enforces goroutine lifecycle discipline in the service tier and
// the worker-pool layer: every `go` statement must be joinable — the
// spawned function (or something it statically reaches) must, on some
// path, signal completion or observe cancellation. The accepted join
// protocols are exactly the three the codebase uses:
//
//   - a sync.WaitGroup Done (par's team workers, joined by Wait);
//   - a send on — or close of — a channel (the done-channel protocol:
//     serve.Scheduler.loop closes loopDone, mdserve's listener goroutine
//     sends its error);
//   - a context cancellation check ((context.Context).Done).
//
// A goroutine with none of these is unjoinable by construction: nothing
// can wait for it, Close can return while it still runs, and tests leak
// it across cases. The check is path-insensitive (a marker anywhere in
// the spawned call tree counts) — it catches the goroutine that CANNOT be
// joined, not one that merely might not be. Spawns whose target cannot be
// resolved statically (interface method, function value) are flagged too:
// wrap them in a closure that performs the join.
var goleakCheck = &Check{
	Name: "goleak",
	Doc:  "go statement spawns a goroutine with no WaitGroup, done-channel, or context join",
	Run:  runGoleak,
}

func runGoleak(p *Package) []Diagnostic {
	prog := p.Prog
	if prog == nil {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !p.spawnJoined(prog, g) {
				diags = append(diags, p.diag(g.Pos(), "goleak",
					"goroutine is never joined: no WaitGroup.Done, channel send/close, or context-cancellation check reachable from the spawned function"))
			}
			return true
		})
	}
	return diags
}

// spawnJoined reports whether a go statement's spawned call tree contains
// a join marker.
func (p *Package) spawnJoined(prog *Program, g *ast.GoStmt) bool {
	// Seed the scan with the spawned body: a closure's own statements, or
	// the resolved callee's declaration.
	var roots []*types.Func
	if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
		if p.hasJoinMarker(fl.Body) {
			return true
		}
		// The closure's direct calls feed the reachability scan.
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := p.staticFunc(call.Fun); callee != nil {
					roots = append(roots, callee)
				}
			}
			return true
		})
	} else if callee := p.staticFunc(g.Call.Fun); callee != nil {
		roots = append(roots, callee)
	} else {
		return false // dynamic spawn target: cannot prove a join
	}
	for _, root := range roots {
		for fn := range prog.Reachable(root) {
			node := prog.Node(fn)
			if node != nil && node.Pkg.hasJoinMarker(node.Decl.Body) {
				return true
			}
		}
	}
	return false
}

// hasJoinMarker scans a body for the three join protocols.
func (p *Package) hasJoinMarker(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if b, ok := p.useOf(fun).(*types.Builtin); ok && b.Name() == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				if fn := p.methodCallee(fun); fn != nil {
					switch fn.FullName() {
					case "(*sync.WaitGroup).Done", "(context.Context).Done":
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// methodCallee resolves a selector to the method it names, including
// interface methods (which staticFunc deliberately skips).
func (p *Package) methodCallee(sel *ast.SelectorExpr) *types.Func {
	if s, ok := p.Info.Selections[sel]; ok {
		if fn, ok := s.Obj().(*types.Func); ok {
			return origin(fn)
		}
		return nil
	}
	if fn, ok := p.useOf(sel.Sel).(*types.Func); ok {
		return origin(fn)
	}
	return nil
}
