package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestRepoIsClean is the self-check: the analyzer must run clean over the
// whole module, i.e. `go run ./cmd/tmevet ./...` exits 0. Nothing is
// grandfathered: any new finding must be fixed or carry an explicit
// justified //tmevet:ignore.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root := moduleRoot(t)
	diags, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("fix the findings or suppress with //tmevet:ignore <check> -- rationale (see DESIGN.md §7.3)")
	}
}

// TestSuppressionRequiresNamedCheck pins the suppression grammar: a bare
// ignore comment (no check name) must not suppress anything.
func TestSuppressionRequiresNamedCheck(t *testing.T) {
	p := &Package{}
	p.ignores = map[string]map[int][]string{}
	if p.suppressed("detmap", diagAt("f.go", 3)) {
		t.Fatal("empty ignore table suppressed a diagnostic")
	}
	p.ignores["f.go"] = map[int][]string{3: nil} // "//tmevet:ignore" with no names
	if p.suppressed("detmap", diagAt("f.go", 3)) {
		t.Fatal("bare //tmevet:ignore must not suppress; the check must be named")
	}
	p.ignores["f.go"][3] = []string{"detmap"}
	if !p.suppressed("detmap", diagAt("f.go", 3)) {
		t.Fatal("named ignore on the same line must suppress")
	}
	if !p.suppressed("detmap", diagAt("f.go", 4)) {
		t.Fatal("named ignore on the line above must suppress")
	}
	if p.suppressed("detmap", diagAt("f.go", 5)) {
		t.Fatal("ignore must not leak two lines down")
	}
	if p.suppressed("clock", diagAt("f.go", 3)) {
		t.Fatal("ignore must not cover other checks")
	}
}

// TestUnknownCheckIsReported: an ignore directive naming a check that is
// not registered — a typo, or a name from before checks were folded —
// suppresses nothing and is itself a finding, while the registered names
// beside it still work.
func TestUnknownCheckIsReported(t *testing.T) {
	const src = `package p

func f() {
	//tmevet:ignore noalloc-ipa,detmap,obsclock -- stale names beside a live one
	_ = 0
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	p := &Package{Fset: fset, Files: []*ast.File{f}}
	p.collectIgnores()
	var got []string
	for _, d := range p.unknownIgnores {
		if d.Check != unknownCheck || d.Pos.Line != 4 {
			t.Errorf("unknown-check finding %s: want check %q at line 4", d, unknownCheck)
		}
		got = append(got, d.Message)
	}
	if len(got) != 2 || got[0] != `unknown check "noalloc-ipa"` || got[1] != `unknown check "obsclock"` {
		t.Errorf("unknown-check findings %q, want noalloc-ipa and obsclock", got)
	}
	if !p.suppressed("detmap", diagAt("f.go", 5)) {
		t.Error("the registered name beside the unknown ones must still suppress")
	}
	if p.suppressed("noalloc", diagAt("f.go", 5)) {
		t.Error("an unknown name must not suppress a registered check")
	}
}

func diagAt(file string, line int) (pos token.Position) {
	pos.Filename = file
	pos.Line = line
	return pos
}
