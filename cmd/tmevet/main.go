// Command tmevet is the project's static analyzer. It enforces the
// determinism, hot-path and concurrency/durability invariants of the
// simulation code with seven checks: no wall-clock read outside
// internal/obs's //tme:clock-seam functions and no global-random-source
// draw in internal packages (clock), no map-order iteration in numeric
// packages (detmap), no discarded errors on durability/wire paths
// (errdrop), no unjoinable goroutines in the service tier (goleak), no
// allocation in a //tme:noalloc function or in an unannotated callee it
// reaches (noalloc), no mutation of //tme:owner fields outside the owner
// goroutine's call tree (schedown), and, on a whole-module run, no
// function in internal/ that only tests reference and no non-test import
// of a *test test-support package (deadexport).
//
// Usage:
//
//	go run ./cmd/tmevet [-list] [packages]
//
// Packages follow the go tool's pattern syntax ("./...", "./internal/...",
// a plain directory), resolved against the enclosing module. With no
// arguments it analyzes "./...". -list prints the registered checks and
// exits. Findings are printed one per line as file:line:col: check:
// message, with module-relative file names.
//
// Exit status is 1 when any diagnostic is reported, 2 on usage or load
// errors. Nothing is grandfathered: a finding is fixed or carries a
// justified suppression.
//
// Findings are suppressed line-by-line with
// "//tmevet:ignore <check>[,<check>...] -- rationale" on the offending
// line or the line above; a directive naming an unregistered check is
// itself a finding. See DESIGN.md §7.3.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tme4a/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list registered checks and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tmevet [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, c := range lint.Checks() {
			fmt.Printf("%-12s %s\n", c.Name, c.Doc)
		}
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmevet:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Patterns are given relative to the working directory; the loader
	// wants them relative to the module root.
	rel, err := rebase(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmevet:", err)
		os.Exit(2)
	}

	diags, err := lint.Run(root, rel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmevet:", err)
		os.Exit(2)
	}

	for _, d := range diags {
		pos := d.Pos
		pos.Filename = relPath(root, pos.Filename)
		fmt.Printf("%s: %s: %s\n", pos, d.Check, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tmevet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// rebase converts working-directory-relative package patterns to
// module-root-relative ones.
func rebase(root string, patterns []string) ([]string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(patterns))
	for _, pat := range patterns {
		suffix := ""
		base := pat
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			suffix = "/..."
			base = rest
			if base == "" {
				base = "."
			}
		}
		abs := base
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(cwd, base)
		}
		r, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(r, "..") {
			return nil, fmt.Errorf("package pattern %q lies outside the module at %s", pat, root)
		}
		out = append(out, filepath.ToSlash(r)+suffix)
	}
	return out, nil
}

// relPath rebases an absolute filename to a module-relative slash path;
// paths outside root pass through slash-normalized.
func relPath(root, filename string) string {
	if rel, err := filepath.Rel(root, filename); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}
