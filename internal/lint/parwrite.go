package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// parwrite guards the slab-ownership discipline: a closure handed to a
// par loop runs concurrently on many chunks, so a plain assignment to a
// variable captured from the enclosing scope is a data race (and, even
// when "benign", makes the result depend on scheduling). The sanctioned
// write forms are element writes through an index (buf[i] = ...,
// v.part[s].e += ... — ownership partitions the index space) and
// variables declared inside the closure itself, its job parameter
// included.
//
// Named bodies (the job-value form of the hot loops) and mutation hidden
// behind method calls are out of scope (not interprocedural); the
// race-detector tier of tier1.sh remains the runtime backstop.
var parwriteCheck = &Check{
	Name: "parwrite",
	Doc:  "closure passed to par.For/ForRange/ForRangeGrain writes captured shared state",
	Run:  runParwrite,
}

func runParwrite(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := p.parCallee(call)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if fl, ok := arg.(*ast.FuncLit); ok {
					diags = append(diags, p.checkWorkerClosure(fl, name)...)
				}
			}
			return true
		})
	}
	return diags
}

// lhsRoot walks an assignment target down to its root identifier,
// reporting whether the path passes through an element index.
func lhsRoot(e ast.Expr) (id *ast.Ident, indexed bool) {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t, indexed
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			indexed = true
			e = t.X
		default:
			return nil, indexed
		}
	}
}

// capturedTarget resolves an assignment target to a variable declared
// outside the closure, or nil if the write is local or index-partitioned.
func (p *Package) capturedTarget(fl *ast.FuncLit, e ast.Expr) *types.Var {
	id, indexed := lhsRoot(e)
	if id == nil || indexed || id.Name == "_" {
		return nil
	}
	v, ok := p.useOf(id).(*types.Var)
	if !ok {
		return nil
	}
	if v.Pos() >= fl.Pos() && v.Pos() < fl.End() {
		return nil // declared inside the closure (param or local)
	}
	return v
}

// closureWrites collects the captured variables a closure assigns (other
// than through an index), with one representative position each.
func (p *Package) closureWrites(fl *ast.FuncLit) map[*types.Var]token.Pos {
	writes := map[*types.Var]token.Pos{}
	record := func(e ast.Expr) {
		if v := p.capturedTarget(fl, e); v != nil {
			if _, ok := writes[v]; !ok {
				writes[v] = e.Pos()
			}
		}
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				if n.Key != nil {
					record(n.Key)
				}
				if n.Value != nil {
					record(n.Value)
				}
			}
		}
		return true
	})
	return writes
}

// checkWorkerClosure flags every captured non-index write in a closure
// passed to a par loop, where the closure body runs concurrently with
// itself.
func (p *Package) checkWorkerClosure(fl *ast.FuncLit, helper string) []Diagnostic {
	var diags []Diagnostic
	for v, pos := range p.closureWrites(fl) {
		diags = append(diags, p.diag(pos, "parwrite",
			"closure passed to par.%s writes captured variable %q; partition writes by index (buf[i]) or use per-worker scratch", helper, v.Name()))
	}
	return diags
}
