package lint

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
)

// Report is tmevet's machine-readable output (-json): the check catalog
// plus every diagnostic, byte-identical across runs and file-discovery
// orders. Determinism comes for free from the pipeline — Run sorts
// diagnostics by position, check and message, and the registry is
// name-ordered.
type Report struct {
	Version     int          `json:"version"`
	Checks      []CheckInfo  `json:"checks"`
	Diagnostics []ReportDiag `json:"diagnostics"`
	Total       int          `json:"total"`
}

// CheckInfo documents one registered check.
type CheckInfo struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

// ReportDiag is one finding with module-relative file path.
type ReportDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// NewReport assembles a report from Run's sorted output.
func NewReport(root string, diags []Diagnostic) *Report {
	r := &Report{Version: 1, Total: len(diags)}
	for _, c := range Checks() {
		r.Checks = append(r.Checks, CheckInfo{Name: c.Name, Doc: c.Doc})
	}
	for _, d := range diags {
		r.Diagnostics = append(r.Diagnostics, ReportDiag{
			File:    RelPath(root, d.Pos.Filename),
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Check:   d.Check,
			Message: d.Message,
		})
	}
	return r
}

// Encode renders the report as indented JSON with a trailing newline.
func (r *Report) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RelPath rebases an absolute filename to a module-relative slash path;
// paths outside root (or already relative) pass through slash-normalized.
func RelPath(root, filename string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, filename); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
}
