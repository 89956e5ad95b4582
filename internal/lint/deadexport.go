package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deadexport keeps shipped code to what a binary reaches. On a
// whole-module run every function and method declared in a non-test file
// under internal/ must be referenced by non-test code somewhere outside
// its own body — a call, a method value, a par body, a value stored in a
// var. A function only tests call is a test helper living in a shipped
// package: move it into a _test.go file of its package, or into a
// test-support package when other packages' tests need it, or delete it.
//
// Exempt are init, a method whose receiver type implements an interface
// declaring it — one the loaded code declares or uses, one a package it
// imports declares, or one errors.Is/As/Unwrap assert — since it may be
// reached by dynamic dispatch (error, fmt.Stringer, gob.GobEncoder,
// ckpt.FS, ...), and the exported functions of a test-support package,
// one named *test, which in turn no non-test file may import. Only tests
// reach a test-support package, so an interface it declares or uses
// exempts nothing. The check sees references, not reachability: a cycle
// of dead functions that call each other is not reported.
var deadexportCheck = &Check{
	Name: "deadexport",
	Doc:  "function in internal/ referenced by no non-test code, or a non-test import of a *test package",
	Run:  runDeadexport,
}

// isTestSupport reports whether a package is a test-support package.
func isTestSupport(pkg *types.Package) bool {
	return strings.HasSuffix(pkg.Name(), "test")
}

func runDeadexport(p *Package) []Diagnostic {
	prog := p.Prog
	if prog == nil {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, spec := range f.Imports {
			if pn := p.Info.PkgNameOf(spec); pn != nil && isTestSupport(pn.Imported()) {
				diags = append(diags, p.diag(spec.Pos(), "deadexport",
					"non-test file imports test-support package %s", pn.Imported().Path()))
			}
		}
	}
	if !strings.HasPrefix(p.Rel, "internal/") {
		return diags
	}
	support := isTestSupport(p.Pkg)
	used, _ := prog.references()
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok || used[fn] || support && fn.Exported() || fd.Recv != nil && prog.satisfiesIface(fn) {
				continue
			}
			diags = append(diags, p.diag(fd.Name.Pos(), "deadexport",
				"%s is referenced by no non-test code; delete it or move it into a _test.go file", displayName(fn, p)))
		}
	}
	return diags
}

// satisfiesIface reports whether method fn is one some interface of the
// loaded code may dispatch to: its receiver type's method set (a pointer
// receiver's, which holds both) implements an interface that declares a
// method of its name.
func (prog *Program) satisfiesIface(fn *types.Func) bool {
	_, ifaces := prog.references()
	recv := fn.Type().(*types.Signature).Recv().Type()
	if _, ok := recv.(*types.Pointer); !ok {
		recv = types.NewPointer(recv)
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(recv, it) {
			return true
		}
	}
	return false
}

// references returns, memoized, the functions that loaded non-test code
// references outside their own bodies, and by method name the interfaces
// that code declares or uses or that a package it imports, directly or
// not, declares at package scope — test-support packages aside.
func (prog *Program) references() (used map[*types.Func]bool, ifaces map[string][]*types.Interface) {
	if prog.used != nil {
		return prog.used, prog.ifaces
	}
	used = map[*types.Func]bool{}
	ifaces = map[string][]*types.Interface{}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if t == nil {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, it := range errorsIfaces() {
		addIface(it)
	}
	seen := map[*types.Package]bool{}
	var scopeIfaces func(pkg *types.Package)
	scopeIfaces = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] || isTestSupport(pkg) {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			scopeIfaces(imp)
		}
	}
	for _, p := range prog.pkgs {
		support := isTestSupport(p.Pkg)
		scopeIfaces(p.Pkg)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				var self *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self, _ = p.Info.Defs[fd.Name].(*types.Func)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := p.Info.Uses[n].(*types.Func); ok && origin(fn) != self {
							used[origin(fn)] = true
						}
						if obj := p.useOf(n); obj != nil && !support {
							addIface(obj.Type())
						}
					case ast.Expr:
						if tv, ok := p.Info.Types[n]; ok && !support {
							addIface(tv.Type)
						}
					}
					return true
				})
			}
		}
	}
	prog.used, prog.ifaces = used, ifaces
	return used, ifaces
}

// errorsIfaces returns the interfaces errors.Is, As and Unwrap assert
// without declaring them anywhere a scope walk would find.
func errorsIfaces() []*types.Interface {
	errT := types.Universe.Lookup("error").Type()
	tuple := func(ts ...types.Type) *types.Tuple {
		vs := make([]*types.Var, len(ts))
		for i, t := range ts {
			vs[i] = types.NewVar(0, nil, "", t)
		}
		return types.NewTuple(vs...)
	}
	method := func(name string, params, results *types.Tuple) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, params, results, false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(0, nil, name, sig)}, nil).Complete()
	}
	return []*types.Interface{
		method("Unwrap", tuple(), tuple(errT)),
		method("Unwrap", tuple(), tuple(types.NewSlice(errT))),
		method("Is", tuple(errT), tuple(types.Typ[types.Bool])),
		method("As", tuple(types.Universe.Lookup("any").Type()), tuple(types.Typ[types.Bool])),
	}
}
