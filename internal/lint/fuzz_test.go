package lint

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// TestParseIgnoreDirective pins the suppression grammar the fuzzer
// explores: the prefix must be a whole word, the rationale after "--" is
// free text, and malformed check names suppress nothing.
func TestParseIgnoreDirective(t *testing.T) {
	cases := []struct {
		in     string
		ok     bool
		checks []string
	}{
		{"//tmevet:ignore detmap -- reason", true, []string{"detmap"}},
		{"//tmevet:ignore detmap,noalloc -- two at once", true, []string{"detmap", "noalloc"}},
		{"//tmevet:ignore no-such-check -- dashed name", true, []string{"no-such-check"}},
		{"//tmevet:ignore\tdetmap", true, []string{"detmap"}},
		{"//tmevet:ignore", true, nil}, // bare: a directive, but suppresses nothing
		{"//tmevet:ignore -- rationale only", true, nil},
		{"//tmevet:ignored detmap", false, nil}, // prefix must be a whole word
		{"//tmevet:ignoreX", false, nil},
		{"// tmevet:ignore detmap", false, nil}, // space before the marker: prose
		{"//tmevet:ignore Detmap", true, nil},   // uppercase: invalid name, dropped
		{"//tmevet:ignore det map", true, nil},  // embedded space: invalid name
		{"//tmevet:ignore -detmap", true, nil},  // must start with a letter
		{"//tmevet:ignore detmap, , clock", true, []string{"detmap", "clock"}},
		{"//tmevet:ignore detmap--glued rationale", true, []string{"detmap"}},
	}
	for _, c := range cases {
		checks, ok := ParseIgnoreDirective(c.in)
		if ok != c.ok {
			t.Errorf("ParseIgnoreDirective(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if strings.Join(checks, ",") != strings.Join(c.checks, ",") {
			t.Errorf("ParseIgnoreDirective(%q) = %q, want %q", c.in, checks, c.checks)
		}
	}
}

// FuzzIgnoreDirective hardens the suppression parser against malformed
// input: whatever the comment text, the parser must not panic, must only
// claim directive status for real "//tmevet:ignore" word-prefixed
// comments, and must only ever return well-formed check names — a
// malformed list must fail closed (suppress nothing), never open.
func FuzzIgnoreDirective(f *testing.F) {
	f.Add("//tmevet:ignore detmap -- rationale")
	f.Add("//tmevet:ignore detmap,no-such-check -- two")
	f.Add("//tmevet:ignore")
	f.Add("//tmevet:ignoreX sneak")
	f.Add("//tmevet:ignore \t , , -- ")
	f.Add("//tmevet:ignore --")
	f.Add("// plain comment")
	f.Add("//tmevet:ignore detmap -- -- double dash")
	f.Add("//tmevet:ignore \x00\xff")
	f.Add("//tmevet:ignore détmap -- unicode")
	f.Fuzz(func(t *testing.T, text string) {
		checks, ok := ParseIgnoreDirective(text)
		if !ok {
			if len(checks) != 0 {
				t.Fatalf("not a directive but returned checks %q", checks)
			}
			// Only a true word-prefix may be rejected for the right reason;
			// anything the parser rejects must genuinely not be a directive.
			if rest, has := strings.CutPrefix(text, "//tmevet:ignore"); has &&
				(rest == "" || rest[0] == ' ' || rest[0] == '\t') {
				t.Fatalf("rejected a well-prefixed directive: %q", text)
			}
			return
		}
		if !strings.HasPrefix(text, "//tmevet:ignore") {
			t.Fatalf("claimed directive status without the prefix: %q", text)
		}
		for _, name := range checks {
			if name == "" || !utf8.ValidString(name) {
				t.Fatalf("returned malformed check name %q from %q", name, text)
			}
			if !validCheckName(name) {
				t.Fatalf("returned invalid check name %q from %q", name, text)
			}
			if strings.ContainsAny(name, " \t,") {
				t.Fatalf("check name %q contains separators (from %q)", name, text)
			}
		}
	})
}
