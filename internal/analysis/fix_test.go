package analysis

import (
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixModule is a self-contained throwaway module carrying exactly one
// instance of each mechanically fixable finding: an unprefixed panic
// literal and an unstable sort.Slice.
var fixModule = map[string]string{
	"go.mod": "module fixmod\n\ngo 1.22\n",
	"internal/fixable/fixable.go": `// Package fixable carries one instance of each fixable finding.
package fixable

import "sort"

// Node holds data.
type Node struct {
	vals []int
}

// Validate rejects negative inputs.
func Validate(n int) {
	if n < 0 {
		panic("negative")
	}
}

// Order sorts the values.
func (nd *Node) Order() {
	sort.Slice(nd.vals, func(i, j int) bool { return nd.vals[i] < nd.vals[j] })
}
`,
}

// TestFixRoundTrip drives the full -fix contract end to end: every
// finding in the fixture module carries a fix, applying the fixes
// leaves gofmt-clean source that re-analyzes with zero findings, and a
// second apply pass changes nothing (idempotence).
func TestFixRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, content := range fixModule {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	diags, err := Run(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(diags), render(diags))
	}
	for _, d := range diags {
		if d.Fix == nil {
			t.Errorf("finding without a fix: %s", d)
		}
	}

	changed, err := ApplyFixes(diags)
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	target := filepath.Join(dir, "internal", "fixable", "fixable.go")
	if len(changed) != 1 || changed[0] != target {
		t.Fatalf("changed %v, want exactly %s", changed, target)
	}

	fixed, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`panic("fixable: negative")`,
		"sort.SliceStable(nd.vals",
	} {
		if !strings.Contains(string(fixed), want) {
			t.Errorf("fixed source missing %q:\n%s", want, fixed)
		}
	}
	formatted, err := format.Source(fixed)
	if err != nil {
		t.Fatalf("fixed source does not parse: %v", err)
	}
	if string(formatted) != string(fixed) {
		t.Errorf("fixed source is not gofmt-clean:\n--- on disk ---\n%s--- gofmt ---\n%s", fixed, formatted)
	}

	// Second round: the fixed tree must analyze clean, and re-applying
	// must not touch the tree.
	diags, err = Run(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("Run after fixes: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("findings remain after fixes:\n%s", render(diags))
	}
	changed, err = ApplyFixes(diags)
	if err != nil {
		t.Fatalf("ApplyFixes (second pass): %v", err)
	}
	if len(changed) != 0 {
		t.Fatalf("second apply pass rewrote %v; fixes are not idempotent", changed)
	}
}

// TestApplyFixesRejectsOverlap asserts conflicting edits abort before
// any file is written.
func TestApplyFixesRejectsOverlap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.go")
	original := "package x\n"
	if err := os.WriteFile(path, []byte(original), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{
		{Fix: &SuggestedFix{Message: "a", Edits: []TextEdit{{File: path, Offset: 0, End: 9, NewText: "package y"}}}},
		{Fix: &SuggestedFix{Message: "b", Edits: []TextEdit{{File: path, Offset: 5, End: 9, NewText: "zzz"}}}},
	}
	if _, err := ApplyFixes(diags); err == nil {
		t.Fatal("overlapping edits applied without error")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != original {
		t.Fatalf("file rewritten despite conflict: %q", after)
	}
}
