package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package as the analyzer sees it: the parsed
// non-test files of a directory plus full go/types information. Test files
// are excluded by construction (the determinism and allocation invariants
// are properties of the shipped simulation code; external test packages
// would also complicate single-pass type checking).
type Package struct {
	// Path is the import path, Rel the module-relative directory
	// ("internal/grid"; "." for the module root).
	Path string
	Rel  string
	Dir  string

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// TypeErrors collects type-checker diagnostics. The repo must
	// type-check cleanly (tier-1 builds it first), so the runner surfaces
	// these rather than silently analyzing with partial type info.
	TypeErrors []error

	// ignores maps filename -> line -> check names suppressed on that
	// line by a "//tmevet:ignore check[,check...]" comment.
	ignores map[string]map[int][]string
	// unknownIgnores reports the ignore directives' names that match no
	// registered check.
	unknownIgnores []Diagnostic

	// Prog is the whole-module call-graph view, set by Run after every
	// package is loaded. Interprocedural checks return nothing when it is
	// nil (e.g. a package checked in isolation by a unit test).
	Prog *Program
}

// Loader parses and type-checks module packages on demand, resolving
// module-internal imports from source (the go tool's build cache and
// export data are deliberately not used: the analyzer must work from a
// bare checkout with only the stdlib toolchain).
type Loader struct {
	Root       string // module root (directory containing go.mod)
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by absolute dir
	loading map[string]bool     // import-cycle guard
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:       root,
		ModulePath: mod,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// Packages returns every package the loader has materialized so far —
// pattern packages plus the module-internal imports type-checking pulled
// in — sorted by directory for deterministic iteration.
func (l *Loader) Packages() []*Package {
	pkgs := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Dir < pkgs[j].Dir })
	return pkgs
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Expand resolves package patterns (relative to the module root) to
// package directories. Supported forms: "./...", "dir/...", and plain
// directories. Walks skip hidden, underscore, and testdata directories —
// unless the pattern base itself lies inside a testdata tree, which is how
// the golden fixtures are addressed explicitly.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := filepath.Join(l.Root, filepath.FromSlash(pat))
		if fi, err := os.Stat(base); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("lint: no such package directory: %s", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		inTestdata := strings.Contains(filepath.ToSlash(base), "/testdata")
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base {
				if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if name == "testdata" && !inTestdata {
					return filepath.SkipDir
				}
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir contains at least one non-test .go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if isSourceFile(e) {
			return true
		}
	}
	return false
}

func isSourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// Load parses and type-checks the package in dir (absolute), memoized.
func (l *Loader) Load(dir string) (*Package, error) {
	if p, ok := l.pkgs[dir]; ok {
		return p, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("lint: import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + rel
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &Package{Path: path, Rel: rel, Dir: dir, Fset: l.fset}
	for _, e := range ents {
		if !isSourceFile(e) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
	}
	if len(p.Files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	p.collectIgnores()

	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
	cfg := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	// The returned error repeats the first entry of TypeErrors; the
	// partial Pkg and Info are kept either way so checks can still run.
	p.Pkg, _ = cfg.Check(path, l.fset, p.Files, p.Info)
	l.pkgs[dir] = p
	return p, nil
}

// loaderImporter routes module-internal imports back through the loader
// and everything else (the stdlib) through the from-source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok || path == l.ModulePath {
		if !ok {
			rel = "."
		}
		p, err := l.Load(filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

// ignorePrefix introduces a line-scoped suppression comment.
const ignorePrefix = "//tmevet:ignore"

// ParseIgnoreDirective parses a "//tmevet:ignore <check>[,<check>...] --
// rationale" comment, returning the suppressed check names. ok is false
// when the comment is not an ignore directive at all. The grammar is
// strict where it matters for safety: the prefix must be followed by a
// space, tab, or end of comment (so "//tmevet:ignorexyz" is prose, not a
// directive), and check names must match [a-z][a-z0-9-]* — a malformed
// name suppresses nothing rather than something unintended. The rationale
// after the first "--" is free text and ignored.
func ParseIgnoreDirective(text string) (checks []string, ok bool) {
	rest, ok := strings.CutPrefix(text, ignorePrefix)
	if !ok {
		return nil, false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false
	}
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	for _, name := range strings.Split(rest, ",") {
		if name = strings.TrimSpace(name); name != "" && validCheckName(name) {
			checks = append(checks, name)
		}
	}
	return checks, true
}

// validCheckName reports whether name matches [a-z][a-z0-9-]*.
func validCheckName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case i > 0 && (c >= '0' && c <= '9' || c == '-'):
		default:
			return false
		}
	}
	return len(name) > 0
}

// collectIgnores records every "//tmevet:ignore check[,check...]" comment
// by file and line. A diagnostic is suppressed when such a comment naming
// its check sits on the diagnostic's line or on the line directly above.
// A name that matches no registered check is recorded as a finding.
func (p *Package) collectIgnores() {
	p.ignores = map[string]map[int][]string{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				checks, ok := ParseIgnoreDirective(c.Text)
				if !ok || len(checks) == 0 {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				for _, name := range checks {
					if ByName(name) == nil {
						p.unknownIgnores = append(p.unknownIgnores, Diagnostic{
							Pos: pos, Check: unknownCheck, Message: fmt.Sprintf("unknown check %q", name),
						})
					}
				}
				m := p.ignores[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					p.ignores[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], checks...)
			}
		}
	}
}

// suppressed reports whether a diagnostic of the given check at pos is
// covered by an ignore comment.
func (p *Package) suppressed(check string, pos token.Position) bool {
	m := p.ignores[pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, name := range m[line] {
			if name == check {
				return true
			}
		}
	}
	return false
}
