package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestJSONDeterministic pins tmevet's -json contract: the encoded report
// is byte-identical across independent runs and across file-discovery
// order (patterns given forwards, reversed, and interleaved must all
// produce the same bytes). CI diffs tmevet.json between runs, so a single
// unstable map iteration would show up as noise here first.
func TestJSONDeterministic(t *testing.T) {
	root := moduleRoot(t)
	forward := []string{
		"internal/lint/testdata/src/errdrop",
		"internal/lint/testdata/src/goleak",
		"internal/lint/testdata/src/noalloc",
		"internal/lint/testdata/src/noalloc/noalloc-ipa",
		"internal/lint/testdata/src/schedown",
	}
	reversed := []string{forward[4], forward[3], forward[2], forward[1], forward[0]}
	shuffled := []string{forward[3], forward[0], forward[4], forward[2], forward[1]}

	encode := func(patterns []string) []byte {
		t.Helper()
		diags, err := Run(root, patterns)
		if err != nil {
			t.Fatal(err)
		}
		data, err := NewReport(root, diags).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	first := encode(forward)
	if again := encode(forward); !bytes.Equal(first, again) {
		t.Errorf("two identical runs produced different report bytes")
	}
	if rev := encode(reversed); !bytes.Equal(first, rev) {
		t.Errorf("reversed pattern order changed the report bytes")
	}
	if shuf := encode(shuffled); !bytes.Equal(first, shuf) {
		t.Errorf("shuffled pattern order changed the report bytes")
	}

	var rep Report
	if err := json.Unmarshal(first, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Version != 1 || rep.Total == 0 || rep.Total != len(rep.Diagnostics) {
		t.Errorf("report shape wrong: version=%d total=%d diags=%d", rep.Version, rep.Total, len(rep.Diagnostics))
	}
	if len(rep.Checks) != len(Checks()) {
		t.Errorf("report lists %d checks, registry has %d", len(rep.Checks), len(Checks()))
	}
	viaPath := false
	for _, d := range rep.Diagnostics {
		if d.File == "" || d.File[0] == '/' {
			t.Errorf("diagnostic file %q is not module-relative", d.File)
		}
		viaPath = viaPath || strings.Contains(d.Message, " via ")
	}
	if !viaPath {
		t.Errorf("report has no call-graph finding with a \"via\" path; the BFS order is not covered")
	}
}
