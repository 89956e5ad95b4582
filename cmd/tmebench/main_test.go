package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestModelResultsReproduce regenerates the hardware- and cost-model
// experiments, whose outputs are pure functions of the code, and
// byte-compares each with its committed file in results/. A change to
// the machine model, its constants or the output format shows up here;
// regenerate deliberately with `go run ./cmd/tmebench -exp <name>`.
func TestModelResultsReproduce(t *testing.T) {
	r := &runner{outDir: t.TempDir()}
	for _, tc := range []struct{ exp, file string }{
		{"fig3a", "fig3a.csv"},
		{"fig3b", "fig3b.csv"},
		{"fig9", "fig9.txt"},
		{"fig10", "fig10.csv"},
		{"overlap", "overlap.csv"},
		{"table2", "table2.csv"},
		{"costmodel", "costmodel.csv"},
		{"grid64", "grid64.csv"},
		{"whatif", "whatif.csv"},
	} {
		if err := r.run(tc.exp); err != nil {
			t.Fatalf("%s: %v", tc.exp, err)
		}
		got, err := os.ReadFile(filepath.Join(r.outDir, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			i := 0
			for i < len(g) && i < len(w) && bytes.Equal(g[i], w[i]) {
				i++
			}
			t.Errorf("%s: regenerated %s differs from results/%s at line %d", tc.exp, tc.file, tc.file, i+1)
		}
	}
}
