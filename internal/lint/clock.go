package lint

import (
	"go/ast"
	"go/types"
)

// clock keeps ambient state out of simulation results. A trajectory must be
// a pure function of its inputs and seeds; time.Now and the math/rand
// package-level functions (which share a randomly-seeded global source)
// both smuggle in state from outside. The check flags
//
//   - time.Now, time.Since and time.Until anywhere except inside a function
//     carrying a "//tme:clock-seam" doc directive in a seam package. Reads in
//     package-level variable initializers sit outside any seam and are
//     flagged too. The only seam package is internal/obs, whose recorder
//     hands time to everything else through an injected clock that tests
//     replace with a script; elsewhere the directive permits nothing, so no
//     package can exempt itself with a one-line doc comment;
//   - math/rand global-source draws everywhere, seams included: randomness
//     flows through an explicitly seeded *rand.Rand.
//
// Pure time constructors and converters (time.Duration, time.Unix, ...)
// carry no ambient state and stay legal. Timing belongs in the experiment
// harnesses (internal/expt, benchmarks), which are out of scope. Test files
// are exempt by construction: the analyzer only loads non-test sources.
var clockCheck = &Check{
	Name: "clock",
	Doc:  "time.Now/Since/Until outside a //tme:clock-seam function, or a math/rand global-source draw",
	Run:  runClock,
}

// clockSeamDirective marks a function as a sanctioned wall-clock source.
const clockSeamDirective = "//tme:clock-seam"

// clockSeamPkgs are the module-relative packages where clockSeamDirective is
// honored: the observability package and the fixture for its seam rule.
var clockSeamPkgs = map[string]bool{
	"internal/obs":                   true,
	fixturePrefix + "clock/obsclock": true,
}

// clockFuncs are the time package functions that read the wall clock.
var clockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// randConstructors are the math/rand (and rand/v2) functions that do NOT
// touch the global source: they build explicitly seeded generators, which
// is precisely the sanctioned pattern.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // rand/v2
	"NewChaCha8": true, // rand/v2
}

func runClock(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			annotated := isFunc && hasDirective(fd, clockSeamDirective)
			seam := annotated && clockSeamPkgs[p.Rel]
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg := p.pkgNameOf(sel.X)
				if pkg == nil {
					return true
				}
				name := sel.Sel.Name
				switch pkg.Path() {
				case "time":
					switch {
					case seam || !clockFuncs[name]:
					case annotated:
						diags = append(diags, p.diag(call.Pos(), "clock",
							"time.%s in a //tme:clock-seam function outside internal/obs; the directive is honored only there, so read the clock through obs", name))
					default:
						diags = append(diags, p.diag(call.Pos(), "clock",
							"time.%s outside a //tme:clock-seam function makes results depend on wall-clock state; read the clock through obs or time at the harness level", name))
					}
				case "math/rand", "math/rand/v2":
					// Only package-level functions draw from the global
					// source; methods on an explicit *rand.Rand are fine.
					fn, ok := p.useOf(sel.Sel).(*types.Func)
					if !ok || fn.Type().(*types.Signature).Recv() != nil {
						return true
					}
					if !randConstructors[name] {
						diags = append(diags, p.diag(call.Pos(), "clock",
							"%s.%s draws from the global random source; thread an explicitly seeded *rand.Rand instead", pkg.Name(), name))
					}
				}
				return true
			})
		}
	}
	return diags
}
