// Command tmevet is the project's static analyzer. It enforces the
// determinism, hot-path, parallel-safety, and (since ISSUE 8)
// concurrency/durability invariants of the simulation code: no map-order
// iteration in numeric packages (detmap), no discarded errors on
// durability/wire paths (errdrop), no unjoinable goroutines in the service
// tier (goleak), no wall-clock or global-random-source reads in simulation
// paths (noclock), no allocation constructs in //tme:noalloc functions —
// including through the call graph (noalloc, noalloc-ipa), no
// unpartitioned writes to captured state in par worker closures
// (parwrite), no exported mutable package-level state in numeric packages
// (mutflag), and no mutation of //tme:owner fields outside the owner
// goroutine's call tree (schedown).
//
// Usage:
//
//	go run ./cmd/tmevet [-list] [-json] [-baseline file] [-write-baseline] [packages]
//
// Packages follow the go tool's pattern syntax ("./...", "./internal/...",
// a plain directory), resolved against the enclosing module. With no
// arguments it analyzes "./...".
//
//	-json            emit a deterministic machine-readable report on stdout
//	-baseline file   silence findings recorded in the committed baseline;
//	                 stale entries (matching nothing) are errors, so run
//	                 it over the packages the baseline was written for
//	-write-baseline  rewrite the -baseline file to cover current findings
//
// Exit status is 1 when any non-baselined diagnostic or stale baseline
// entry is reported, 2 on usage or load errors.
//
// Findings are suppressed line-by-line with
// "//tmevet:ignore <check>[,<check>...] -- rationale" on the offending
// line or the line above. See DESIGN.md §7.3 and §7.8.
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
	jsonOut := flag.Bool("json", false, "emit a machine-readable report on stdout")
	baselinePath := flag.String("baseline", "", "baseline file of grandfathered findings")
	writeBaseline := flag.Bool("write-baseline", false, "rewrite the -baseline file from current findings")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tmevet [-list] [-json] [-baseline file] [-write-baseline] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, c := range lint.Checks() {
			fmt.Printf("%-12s %s\n", c.Name, c.Doc)
		}
		return
	}
	if *writeBaseline && *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "tmevet: -write-baseline requires -baseline")
		os.Exit(2)
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

	if *writeBaseline {
		b := lint.FromDiagnostics(root, diags)
		if err := b.Save(*baselinePath); err != nil {
			fmt.Fprintln(os.Stderr, "tmevet:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "tmevet: wrote %d baseline entrie(s) to %s\n", len(b.Entries), *baselinePath)
		return
	}

	kept, baselined := diags, []lint.Diagnostic(nil)
	var stale []lint.BaselineEntry
	if *baselinePath != "" {
		b, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmevet:", err)
			os.Exit(2)
		}
		kept, baselined, stale = b.Apply(root, diags)
		for _, e := range stale {
			fmt.Fprintf(os.Stderr, "tmevet: stale baseline entry (fixed? remove it): %s %s: %s\n", e.Check, e.File, e.Message)
		}
	}

	if *jsonOut {
		data, err := lint.NewReport(root, kept, baselined).Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmevet:", err)
			os.Exit(2)
		}
		os.Stdout.Write(data) //tmevet:ignore errdrop -- report emission; a failed stdout write has nowhere to go
	} else {
		for _, d := range kept {
			pos := d.Pos
			pos.Filename = lint.RelPath(root, pos.Filename)
			fmt.Printf("%s: %s: %s\n", pos, d.Check, d.Message)
		}
	}
	if len(kept) > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "tmevet: %d finding(s), %d stale baseline entrie(s)\n", len(kept), len(stale))
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
