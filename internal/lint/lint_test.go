package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// wantRe extracts golden expectations: a trailing `// want "regexp"`
// comment on the line a diagnostic must be reported at.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// collectWants parses every fixture file of dir for want comments.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	fset := token.NewFileSet()
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat, err := regexp.Compile(strings.ReplaceAll(m[1], `\"`, `"`))
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", path, m[1], err)
				}
				pos := fset.Position(c.Pos())
				wants = append(wants, &expectation{file: path, line: pos.Line, re: pat})
			}
		}
	}
	return wants
}

// fixture is one golden fixture package: testdata/src/<check> itself, or
// a sub-package testdata/src/<check>/<name> holding one facet of the check
// (the facets of a folded check keep the old check's name).
type fixture struct {
	name  string // subtest name: the package directory's base name
	rel   string // directory below testdata/src
	check string
}

// goldenFixtures lists the fixture packages of every registered check.
func goldenFixtures(t *testing.T, fixRoot string) []fixture {
	t.Helper()
	ents, err := os.ReadDir(fixRoot)
	if err != nil {
		t.Fatal(err)
	}
	var fs []fixture
	for _, e := range ents {
		if !e.IsDir() || ByName(e.Name()) == nil {
			continue // support packages like the par stub
		}
		check := e.Name()
		dir := filepath.Join(fixRoot, check)
		if hasGoFiles(dir) {
			fs = append(fs, fixture{name: check, rel: check, check: check})
		}
		subs, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range subs {
			if s.IsDir() && hasGoFiles(filepath.Join(dir, s.Name())) {
				fs = append(fs, fixture{name: s.Name(), rel: check + "/" + s.Name(), check: check})
			}
		}
	}
	return fs
}

// TestGoldenFixtures runs each check against its fixture packages under
// testdata/src/<check> and matches the diagnostics (after suppression)
// against the // want expectations, both ways: every want must be hit, and
// every diagnostic must be wanted. Besides its own check's findings a
// fixture may expect unknown-check findings on stale ignore directives.
func TestGoldenFixtures(t *testing.T) {
	root := moduleRoot(t)
	fixRoot := filepath.Join(root, filepath.FromSlash(fixturePrefix))
	covered := map[string]bool{}
	for _, f := range goldenFixtures(t, fixRoot) {
		covered[f.check] = true
		t.Run(f.name, func(t *testing.T) {
			dir := filepath.Join(fixRoot, filepath.FromSlash(f.rel))
			diags, err := Run(root, []string{fixturePrefix + f.rel})
			if err != nil {
				t.Fatal(err)
			}
			wants := collectWants(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no // want expectations", f.rel)
			}
		Diags:
			for _, d := range diags {
				if d.Check != f.check && d.Check != unknownCheck {
					t.Errorf("fixture %s produced a diagnostic from check %s: %s", f.rel, d.Check, d)
					continue
				}
				for _, w := range wants {
					if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
						w.hit = true
						continue Diags
					}
				}
				t.Errorf("unexpected diagnostic: %s", d)
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
				}
			}
		})
	}
	for _, c := range Checks() {
		if !covered[c.Name] {
			t.Errorf("check %s has no fixture package under testdata/src/%s", c.Name, c.Name)
		}
	}
}

// TestFixturesFailViaDriverPatterns pins the acceptance criterion that
// the fixture tree as a whole produces findings (tmevet must exit
// non-zero on it).
func TestFixturesFailViaDriverPatterns(t *testing.T) {
	root := moduleRoot(t)
	diags, err := Run(root, []string{"internal/lint/testdata/src/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("fixture tree produced no diagnostics")
	}
	perCheck := map[string]int{}
	for _, d := range diags {
		perCheck[d.Check]++
	}
	for _, c := range Checks() {
		if perCheck[c.Name] == 0 {
			t.Errorf("check %s produced no fixture diagnostics", c.Name)
		}
	}
}

// TestRunDeterministic pins Run's output order: the diagnostics, as
// strings, are identical whichever order the patterns are given in, and
// they include a call-graph finding whose " via " path exposes the walk's
// order.
func TestRunDeterministic(t *testing.T) {
	root := moduleRoot(t)
	forward := []string{
		fixturePrefix + "errdrop",
		fixturePrefix + "goleak",
		fixturePrefix + "noalloc",
		fixturePrefix + "noalloc/noalloc-ipa",
		fixturePrefix + "schedown",
	}
	reversed := []string{forward[4], forward[3], forward[2], forward[1], forward[0]}
	shuffled := []string{forward[3], forward[0], forward[4], forward[2], forward[1]}

	render := func(patterns []string) []string {
		t.Helper()
		diags, err := Run(root, patterns)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(diags))
		for i, d := range diags {
			out[i] = d.String()
		}
		return out
	}

	want := render(forward)
	if !slices.ContainsFunc(want, func(d string) bool { return strings.Contains(d, " via ") }) {
		t.Errorf("no call-graph finding with a \"via\" path; the walk order is not covered")
	}
	if got := render(reversed); !slices.Equal(got, want) {
		t.Errorf("reversed pattern order changed the diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got := render(shuffled); !slices.Equal(got, want) {
		t.Errorf("shuffled pattern order changed the diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
