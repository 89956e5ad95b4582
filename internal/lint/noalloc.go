package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// noalloc enforces the steady-state zero-allocation contract on functions
// annotated with a "//tme:noalloc" doc directive (the hot paths of the
// mesh pipeline and short-range engine from PRs 1–2). It looks at each
// annotated function at two depths.
//
// At depth 0 it flags the syntactic allocation sources in the annotated
// body itself:
//
//   - make, new, and append calls (append may grow its backing array);
//   - composite literals of slice or map type, and any composite literal
//     whose address is taken (escape risk);
//   - closure literals, including those handed to par: a closure escapes
//     wherever it is created, even when one worker runs it. A parallel
//     loop passes par a job value and a named body instead;
//   - go statements (goroutine launch allocates; use par).
//
// Type info whitelists the non-escaping cases: plain struct and array
// value literals (vec.V{...} and friends live on the stack).
//
// Below that it walks the static call graph, so extracting a helper out of
// an annotated function cannot silently move an allocation out of sight: a
// call that reaches an UNANNOTATED module function containing an
// unsuppressed allocation source is flagged at the root's first-hop call,
// where the root's author sees it. Callees carrying their own
// //tme:noalloc are skipped — they are checked directly — so annotating the
// helper is the fix that both silences the walk and extends the depth-0
// check. The walk enters the named body handed to a par loop through the
// call graph's par edge (see collectEdges), so a loop body is held to the
// same contract as a direct callee. The par package itself (and its
// fixture stub) is a leaf of the walk: its hot path carries its own
// annotations, checked directly, and its grow-once sites (a team worker, a
// descriptor for a new job type) stay off that path. Interface dispatch
// and other function values produce no edges.
//
// The allocation gates (testing.AllocsPerRun, and partest.AllocsPerRun
// at several GOMAXPROCS) remain the runtime backstop. Guarded grow-once
// paths ("if cap(buf) < n { buf = make... }") are legitimate; mark those
// lines //tmevet:ignore noalloc -- grow-once, which also excuses them when
// the walk reaches them from a root.
var noallocCheck = &Check{
	Name: "noalloc",
	Doc:  "allocation in a //tme:noalloc function or in an unannotated callee it reaches",
	Run:  runNoalloc,
}

// noallocDirective marks a function as a steady-state zero-allocation
// path.
const noallocDirective = "//tme:noalloc"

// hasDirective reports whether fd's doc comment carries the directive,
// alone or followed by a space and free text.
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

func runNoalloc(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd, noallocDirective) {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			name := displayName(fn, p)
			for _, s := range p.funcAllocs(fd) {
				diags = append(diags, p.diag(s.pos, "noalloc", "%s", s.message(name)))
			}
			diags = append(diags, p.reachedAllocs(origin(fn), name)...)
		}
	}
	return diags
}

// allocKind classifies one syntactic allocation source.
type allocKind int

const (
	allocMakeNew allocKind = iota
	allocAppend
	allocLiteral
	allocAddressedLiteral
	allocClosure
	allocGo
)

// allocSite is one allocation construct found in a function body.
type allocSite struct {
	pos  token.Pos
	kind allocKind
	what string // the builtin's name, the literal's type string, "closure" or "go statement"
}

// funcAllocs collects every allocation construct in fd's body.
func (p *Package) funcAllocs(fd *ast.FuncDecl) []allocSite {
	// First pass: composite literals under & are heap-escape risks even for
	// struct types.
	addressed := map[*ast.CompositeLit]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if cl, ok := u.X.(*ast.CompositeLit); ok {
				addressed[cl] = true
			}
		}
		return true
	})

	var sites []allocSite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := p.useOf(id).(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new":
						sites = append(sites, allocSite{n.Pos(), allocMakeNew, b.Name()})
					case "append":
						sites = append(sites, allocSite{n.Pos(), allocAppend, "append"})
					}
				}
			}
		case *ast.CompositeLit:
			tv, ok := p.Info.Types[n]
			if !ok || tv.Type == nil {
				return true
			}
			ts := types.TypeString(tv.Type, types.RelativeTo(p.Pkg))
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				sites = append(sites, allocSite{n.Pos(), allocLiteral, ts})
			default:
				if addressed[n] {
					sites = append(sites, allocSite{n.Pos(), allocAddressedLiteral, ts})
				}
			}
		case *ast.FuncLit:
			sites = append(sites, allocSite{n.Pos(), allocClosure, "closure"})
		case *ast.GoStmt:
			sites = append(sites, allocSite{n.Pos(), allocGo, "go statement"})
		}
		return true
	})
	return sites
}

// describe renders a site for call-graph messages ("make", "append",
// "[]float64 literal", "closure literal", "go statement").
func (s allocSite) describe() string {
	switch s.kind {
	case allocLiteral:
		return s.what + " literal"
	case allocAddressedLiteral:
		return "&" + s.what + " literal"
	case allocClosure:
		return "closure literal"
	default:
		return s.what
	}
}

// message renders a site found in the body of the annotated function fn.
func (s allocSite) message(fn string) string {
	var why string
	switch s.kind {
	case allocMakeNew:
		why = "allocates; preallocate or pool the buffer"
	case allocAppend:
		why = "may grow its backing array; size the buffer at rebuild time"
	case allocLiteral:
		why = "allocates"
	case allocAddressedLiteral:
		why = "risks a heap allocation"
	case allocClosure:
		why = "may allocate; use a named function (for par, a job value and a named body)"
	default:
		why = "allocates a goroutine; dispatch through par instead"
	}
	return s.describe() + " in //tme:noalloc function " + fn + " " + why
}

// reach is one frontier entry of the breadth-first call-graph walk: a
// callee, the first-hop call position in the annotated root (where the
// diagnostic is anchored), and the call path for the message.
type reach struct {
	fn       *types.Func
	firstHop token.Pos
	path     []string
}

// reachedAllocs walks the call graph from the annotated root and reports
// every reachable unannotated module function that allocates. It reports
// nothing without the whole-module view (a package checked in isolation).
func (p *Package) reachedAllocs(root *types.Func, rootName string) []Diagnostic {
	if p.Prog == nil {
		return nil
	}
	rootNode := p.Prog.Node(root)
	if rootNode == nil {
		return nil
	}
	visited := map[*types.Func]bool{root: true}
	var queue []reach
	for _, e := range rootNode.Calls {
		if !visited[e.Callee] {
			visited[e.Callee] = true
			queue = append(queue, reach{fn: e.Callee, firstHop: e.Pos})
		}
	}
	var diags []Diagnostic
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		node := p.Prog.Node(it.fn)
		if node == nil {
			continue // stdlib or bodiless: out of scope
		}
		if isParPackage(it.fn.Pkg()) {
			continue // dispatch leaf: its hot path is annotated itself
		}
		if hasDirective(node.Decl, noallocDirective) {
			continue // carries its own annotation; checked directly
		}
		calleeName := displayName(it.fn, p)
		if desc, ok := node.unsuppressedAlloc(); ok {
			via := ""
			if len(it.path) > 0 {
				via = " via " + strings.Join(it.path, " -> ")
			}
			diags = append(diags, p.diag(it.firstHop, "noalloc",
				"//tme:noalloc function %s calls %s%s, which allocates (%s); annotate the callee //tme:noalloc or hoist the allocation",
				rootName, calleeName, via, desc))
		}
		for _, e := range node.Calls {
			if !visited[e.Callee] {
				visited[e.Callee] = true
				path := append(append([]string(nil), it.path...), calleeName)
				queue = append(queue, reach{fn: e.Callee, firstHop: it.firstHop, path: path})
			}
		}
	}
	return diags
}

// unsuppressedAlloc reports the first allocation site in the node's body
// that is not excused by a //tmevet:ignore noalloc comment at the site.
func (n *FuncNode) unsuppressedAlloc() (string, bool) {
	for _, s := range n.Pkg.funcAllocs(n.Decl) {
		if !n.Pkg.suppressed("noalloc", n.Pkg.Fset.Position(s.pos)) {
			return s.describe(), true
		}
	}
	return "", false
}
