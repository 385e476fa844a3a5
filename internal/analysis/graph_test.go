package analysis

import (
	"strings"
	"testing"
)

// TestGraphStoredReferenceEdges pins the reference-graph edges that a
// call-site-only scan would miss, using the two-package storedref
// fixture and the sharedstate rule: a function literal stored in a
// struct field by one function and invoked only through that field by
// another (reaching a callee in another package), and a method value
// stored without ever being called. Both callees must be scanned as
// concurrent code, attributed to the goroutine root.
func TestGraphStoredReferenceEdges(t *testing.T) {
	diags, err := Run(".", []string{"./testdata/src/storedref/..."})
	if err != nil {
		t.Fatalf("Run(storedref): %v", err)
	}
	want := []struct {
		file string
		line int
		sub  string
	}{
		// inner.Bump is concurrent only through the literal stored into
		// sink.emit, which only run (not Dispatch, and not newSink)
		// ever invokes: the finding proves the field-conduit edge
		// crosses the package boundary and keeps the root's name.
		{"inner/inner.go", 11, "write to package-level variable calls from concurrent code (via storedref.Dispatch)"},
		// bump is concurrent only through the stored method value
		// cb := c.bump.
		{"storedref.go", 32, "write to package-level variable hits from concurrent code (via storedref.Dispatch)"},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(want), render(diags))
	}
	for i, w := range want {
		d := diags[i]
		if d.Analyzer != "sharedstate" || !strings.HasSuffix(d.File, w.file) || d.Line != w.line || !strings.Contains(d.Message, w.sub) {
			t.Errorf("finding %d: got %s\nwant sharedstate at %s:%d containing %q", i, d, w.file, w.line, w.sub)
		}
	}
}
